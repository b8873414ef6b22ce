package repro.sparkstream

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.spark.SparkException
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.SparkSpec
import repro.bn.{BayesianNetwork, Event, ForwardSampler, NetworkGenerator, TestNets}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{Coordinator, CounterLayout, ExactCounterBank}
import repro.stream.SequentialDriver
import repro.util.Rng

class MicroBatchEngineSpec extends SparkSpec {
  private val net = TestNets.chain
  private val layout = CounterLayout.standard(net)
  private val k = 4

  /** Allocation so tight that p stays 1 — the engine degenerates to exact. */
  private def exactish: EpsilonAllocation = EpsilonAllocation.Baseline(1e-6, net.n)

  test("exact-mode micro-batching reproduces exact counts and 2nm messages") {
    val m = 2000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 1L)
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 2L)
    engine.run(spark, events, m, numBatches = 5)

    val ref = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, ref, ForwardSampler.localEvents(net, m, k, seed = 1L))

    assert(engine.messages == 2L * net.n * m)
    assert(engine.eventsProcessed == m)
    (0 until layout.numCounters).foreach { c =>
      assert(engine.coordinator.estimate(c) == ref.count(c).toDouble, s"counter $c")
    }
  }

  test("state carries across batches: one batch equals many batches in exact mode") {
    val m = 1500L
    val events = ForwardSampler.events(spark, net, m, k, seed = 3L)
    val one = MicroBatchEngine(net, layout, exactish, k, seed = 4L)
    one.run(spark, events, m, numBatches = 1)
    val many = MicroBatchEngine(net, layout, exactish, k, seed = 4L)
    many.run(spark, events, m, numBatches = 7)
    (0 until layout.numCounters).foreach { c =>
      assert(one.coordinator.estimate(c) == many.coordinator.estimate(c), s"counter $c")
    }
  }

  test("approximate mode saves communication") {
    val m = 20000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 5L)
    val engine = MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.8, net.n), k, seed = 6L)
    engine.run(spark, events, m, numBatches = 10)
    assert(engine.messages < 2L * net.n * m / 2, s"messages=${engine.messages}")
  }

  test("approximate mode stays close to the exact MLE") {
    val m = 20000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 7L)
    val engine = MicroBatchEngine(net, layout, EpsilonAllocation.Uniform(0.4, net.n), k, seed = 8L)
    engine.run(spark, events, m, numBatches = 10)

    val ref = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, ref, ForwardSampler.localEvents(net, m, k, seed = 7L))
    val mle = new BNModel(net, layout, ref.estimate)

    val assignments = for (a <- 0 until 2; b <- 0 until 3; c <- 0 until 2)
      yield Array(a, b, c)
    val within = assignments.count { x =>
      val ratio = engine.model.jointProb(x) / mle.jointProb(x)
      ratio >= math.exp(-0.4) && ratio <= math.exp(0.4)
    }
    assert(within >= assignments.size * 3 / 4, s"$within/${assignments.size} within bounds")
  }

  test("per-batch message counts are reported and sum to the total") {
    val m = 3000L
    val events = ForwardSampler.events(spark, net, m, k, seed = 9L)
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 10L)
    val per = math.max(1L, m / 4)
    var acc = 0L
    var lo = 0L
    while (lo < m) {
      val hi = math.min(m, lo + per)
      acc += engine.processBatch(spark, events.filter(e => e.id >= lo && e.id < hi))
      lo = hi
    }
    assert(acc == engine.messages)
  }

  test("empty batches are harmless") {
    val events = ForwardSampler.events(spark, net, 10L, k, seed = 11L)
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 12L)
    val msgs = engine.processBatch(spark, events.filter(_.id > 100L))
    assert(msgs == 0L)
    assert(engine.eventsProcessed == 0L)
  }

  /** Batch-sync reference schedule of the engine's protocol, in plain
    * Scala: `p` is frozen at the start of each batch, every site replays its
    * events in id order under the coin key `(site << 32) | c`, and the
    * coordinator folds the batch's messages in `(eventId, counter)` order.
    * Returns the per-batch message counts.
    */
  private def batchSync(layout: CounterLayout, coord: Coordinator, k: Int, seed: Long,
                        events: Seq[Event], batchSize: Int): Seq[Long] = {
    val local = Array.fill(k)(new Array[Int](layout.numCounters))
    events.sortBy(_.id).grouped(batchSize).map { batch =>
      val p = Array.tabulate(layout.numCounters)(coord.pFor)
      val msgs = Seq.newBuilder[(Long, Int, Int, Int)] // (eventId, counter, site, local count)
      for (e <- batch) layout.foreachUpdate(e.x) { c =>
        local(e.site)(c) += 1
        val n = local(e.site)(c)
        if (p(c) >= 1.0 || Rng.uniform(seed, (e.site.toLong << 32) | c.toLong, n.toLong) < p(c))
          msgs += ((e.id, c, e.site, n))
      }
      val sorted = msgs.result().sortBy(t => (t._1, t._2))
      sorted.foreach { case (_, c, site, n) => coord.receive(site, c, n, 1.0 / p(c)) }
      sorted.size.toLong
    }.toSeq
  }

  /** The engine batch by batch over `run`'s slicing; per-batch messages. */
  private def engineBatches(engine: MicroBatchEngine, events: Dataset[Event], m: Long,
                            batchSize: Int): Seq[Long] =
    (0L until m by batchSize.toLong).map { lo =>
      engine.processBatch(spark, events.filter(e => e.id >= lo && e.id < lo + batchSize))
    }

  private def assertMatchesBatchSync(net: BayesianNetwork, lay: CounterLayout, alloc: EpsilonAllocation,
                                     k: Int, m: Long, numBatches: Int, seed: Long): Unit = {
    val clue = s"${net.name} k=$k m=$m batches=$numBatches seed=$seed"
    val batchSize = ((m + numBatches - 1) / numBatches).toInt
    val engine = MicroBatchEngine(net, lay, alloc, k, seed)
    val got = engineBatches(engine, ForwardSampler.events(spark, net, m, k, seed), m, batchSize)
    val ref = new Coordinator(lay.numCounters, k, alloc.epsArray(lay), Coordinator.theoryScale(k))
    val want = batchSync(lay, ref, k, seed, ForwardSampler.localEvents(net, m, k, seed).toSeq, batchSize)
    assert(got == want, clue)
    assert(engine.messages == ref.messages, clue)
    assert(engine.messages < lay.updatesPerEvent.toLong * m, s"$clue: no counter left p = 1")
    (0 until lay.numCounters).foreach { c =>
      assert(engine.coordinator.estimate(c) == ref.estimate(c), s"$clue counter $c")
    }
  }

  test("approximate mode equals the batch-sync reference bit for bit (standard layout)") {
    val rnd = new scala.util.Random(13L)
    for (trial <- 0 until 4) {
      val n = 3 + rnd.nextInt(5)
      val net = NetworkGenerator.random(s"diff$trial", n, edges = n - 1 + rnd.nextInt(2), maxCard = 4,
        maxParents = 2, seed = 100L + trial)
      val alloc = EpsilonAllocation.Uniform(0.5 + rnd.nextDouble() * 1.5, n)
      assertMatchesBatchSync(net, CounterLayout.standard(net), alloc, k = 2 + rnd.nextInt(7),
        m = 1500L + rnd.nextInt(1500), numBatches = 2 + rnd.nextInt(5), seed = 200L + trial)
    }
  }

  test("approximate mode equals the batch-sync reference bit for bit (Naive-Bayes layout)") {
    val rnd = new scala.util.Random(17L)
    for (trial <- 0 until 3) {
      val n = 3 + rnd.nextInt(4)
      val net = NetworkGenerator.naiveBayes(s"nbdiff$trial", n, classCard = 2 + rnd.nextInt(3),
        featureCards = Array.fill(n - 1)(2 + rnd.nextInt(3)), seed = 300L + trial)
      val lay = CounterLayout.naiveBayes(net)
      val alloc = EpsilonAllocation.NaiveBayes(1.0 + rnd.nextDouble() * 2.0, net.card)
      assertMatchesBatchSync(net, lay, alloc, k = 2 + rnd.nextInt(5),
        m = 1500L + rnd.nextInt(1500), numBatches = 2 + rnd.nextInt(5), seed = 400L + trial)
    }
  }

  test("an out-of-domain value fails the batch") {
    import spark.implicits._
    val engine = MicroBatchEngine(net, layout, exactish, k, seed = 13L)
    val bad = Seq(Event(0L, 1, Array(0, 1, 0)), Event(1L, 1, Array(0, 3, 0))).toDS()
    val err = intercept[SparkException](engine.processBatch(spark, bad))
    val causes = Iterator.iterate[Throwable](err)(_.getCause).takeWhile(_ != null)
    assert(causes.exists(_.isInstanceOf[IllegalArgumentException]), err.toString)
  }

  test("a Structured Streaming foreachBatch run equals engine.run") {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val m = 4000L
    val numBatches = 5
    val batchSize = m / numBatches
    val alloc = EpsilonAllocation.Uniform(0.8, net.n)
    val viaRun = MicroBatchEngine(net, layout, alloc, k, seed = 14L)
    viaRun.run(spark, ForwardSampler.events(spark, net, m, k, seed = 14L), m, numBatches)

    val viaStream = MicroBatchEngine(net, layout, alloc, k, seed = 14L)
    val source = MemoryStream[Event]
    val checkpoint = Files.createTempDirectory("microbatch-stream")
    val query = source.toDS().writeStream
      .option("checkpointLocation", checkpoint.toString)
      .foreachBatch { (batch: Dataset[Event], _: Long) => viaStream.processBatch(spark, batch); () }
      .start()
    try (0L until m by batchSize).foreach { lo =>
      source.addData((lo until lo + batchSize).map(id => ForwardSampler.sampleEvent(net, k, 14L, id)))
      query.processAllAvailable()
    } finally {
      query.stop()
      Files.walk(checkpoint).sorted(Comparator.reverseOrder[Path]()).forEach(Files.delete(_))
    }

    assert(viaStream.messages == viaRun.messages)
    assert(viaStream.messages < 2L * net.n * m)
    assert(viaStream.eventsProcessed == m)
    (0 until layout.numCounters).foreach { c =>
      assert(viaStream.coordinator.estimate(c) == viaRun.coordinator.estimate(c), s"counter $c")
    }
  }
}
