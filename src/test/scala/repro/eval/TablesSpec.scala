package repro.eval

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}

import scala.jdk.CollectionConverters._

import repro.SparkSpec
import repro.bn.{ForwardSampler, TestNets}
import repro.core.SuffStats
import repro.counter.{Coordinator, CounterLayout, DistCounterBank}
import repro.stream.SequentialDriver

class TablesSpec extends SparkSpec {

  // One shared small run: chain network, modest stream.
  private lazy val result: DatasetResult =
    Tables.runDataset(spark, TestNets.random20, m = 8000, k = 5, eps = 0.5,
      seed = 21L, nTests = 200, runs = 2)

  test("runDataset returns all four algorithms in order") {
    assert(result.results.map(_.algo) == Tables.algoNames)
  }

  test("exactmle communication is exactly 2·n·m") {
    assert(result("exactmle").messages == 2L * TestNets.random20.n * 8000)
  }

  test("exactmle error vs the MLE is zero by definition") {
    assert(result("exactmle").errVsMle == 0.0)
  }

  test("approximate algorithms never cost more than exactmle") {
    for (a <- Seq("baseline", "uniform", "nonuniform"))
      assert(result(a).messages <= result("exactmle").messages, a)
  }

  test("all classification errors are valid rates") {
    result.results.foreach(r => assert(r.clsErr >= 0.0 && r.clsErr <= 1.0, r.algo))
  }

  test("approximate accuracy vs ground truth is in the same regime as exact") {
    val exactErr = result("exactmle").errVsTruth
    for (a <- Seq("baseline", "uniform", "nonuniform")) {
      assert(result(a).errVsTruth < math.max(5 * exactErr, 0.5),
        s"$a err ${result(a).errVsTruth} vs exact $exactErr")
    }
  }

  test("approximate error vs MLE is bounded by the budget regime") {
    for (a <- Seq("baseline", "uniform", "nonuniform"))
      assert(result(a).errVsMle < 0.5, s"$a errVsMle=${result(a).errVsMle}")
  }

  test("apply throws on unknown algorithm names") {
    intercept[NoSuchElementException](result("nope"))
  }

  test("messageSweep: exact is analytic, approximate series are monotone and snapshot-free") {
    val net = TestNets.random20
    val ms = Seq(1000L, 3000L, 6000L)
    val sweep = Tables.messageSweep(net, ms, k = 5, eps = 0.5, seed = 3L)
    assert(sweep.map(_._1) == Tables.algoNames)
    val exact = sweep.head._2
    assert(exact == ms.map(CounterLayout.standard(net).updatesPerEvent * _))
    val lastOnly = Tables.messageSweep(net, Seq(ms.last), k = 5, eps = 0.5, seed = 3L).toMap
    for ((algo, msgs) <- sweep.tail) {
      assert(msgs.zip(msgs.tail).forall { case (a, b) => a <= b }, s"$algo $msgs")
      assert(msgs.zip(exact).forall { case (a, e) => a <= e }, s"$algo $msgs vs $exact")
      assert(msgs.last == lastOnly(algo).head, algo)
    }
  }

  test("runDataset's concurrent passes equal one pass after another, bit for bit") {
    val net = TestNets.random20
    val (m, k, eps, seed, nTests, runs) = (4000L, 5, 0.5, 9L, 100, 3)
    val got = Tables.runDataset(spark, net, m, k, eps, seed, nTests, runs)

    val layout = CounterLayout.standard(net)
    val queries = TestQueries.condQueries(net, nTests, minProb = 0.01, seed = seed)
    val tests = TestQueries.clsTests(net, nTests, seed)
    val exact = SuffStats.exactModel(spark, net, layout, ForwardSampler.events(spark, net, m, k, seed))
    val perAlgo = Tables.allocations(eps, net).map { alloc =>
      alloc.name -> (0 until runs).map { r =>
        val bank = new DistCounterBank(layout.numCounters, k, alloc.epsArray(layout),
          seed + 7919L * (r + 1), Coordinator.theoryScale(k))
        val snap = SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, k, seed)).last
        val model = snap.model(net, layout)
        (snap.messages.toDouble, Metrics.classificationError(model, tests),
          Metrics.relErrVsTruth(model, queries), Metrics.relErrVsRef(model, exact, queries))
      }
    }
    // The passes differ, so results folded in the wrong order would show.
    assert(perAlgo.flatMap(_._2.map(_._1)).distinct.size > runs)
    val reference = AlgoResult("exactmle", layout.updatesPerEvent.toLong * m,
      Metrics.classificationError(exact, tests), Metrics.relErrVsTruth(exact, queries), 0.0) +:
      perAlgo.map { case (algo, perRun) =>
        AlgoResult(algo, Metrics.median(perRun.map(_._1)).round, Metrics.median(perRun.map(_._2)),
          Metrics.median(perRun.map(_._3)), Metrics.median(perRun.map(_._4)))
      }
    assert(got.results.size == reference.size)
    for ((g, ref) <- got.results.zip(reference)) assert(g == ref)
  }

  test("messageSweep equals one sequential pass per allocation") {
    val net = TestNets.random20
    val layout = CounterLayout.standard(net)
    val ms = Seq(1000L, 4000L)
    val sweep = Tables.messageSweep(net, ms, k = 5, eps = 0.5, seed = 3L)
    val reference = Tables.allocations(0.5, net).map { alloc =>
      val bank = new DistCounterBank(layout.numCounters, 5, alloc.epsArray(layout), 3L, Coordinator.theoryScale(5))
      alloc.name -> SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, ms.max, 5, 3L), ms)
        .map(_.messages)
    }
    assert(sweep.tail == reference)
  }

  private def passThreadsLeft(): Seq[Thread] = {
    val left = Thread.getAllStackTraces.keySet.asScala.toSeq.filter(_.getName.startsWith("tables-pass-"))
    left.foreach(_.join(5000))
    left.filter(_.isAlive)
  }

  test("inParallel returns results in submission order when earlier tasks finish last") {
    val lastDone = new CountDownLatch(1)
    val finished = new ConcurrentLinkedQueue[Int]()
    // Task 0 holds one pool thread until the last task has run on another.
    val tasks = (0 until 5).map { i => () =>
      if (i == 0) assert(lastDone.await(30, TimeUnit.SECONDS))
      finished.add(i)
      if (i == 4) lastDone.countDown()
      i * 10
    }
    assert(Tables.inParallel(tasks) == Seq(0, 10, 20, 30, 40))
    assert(finished.asScala.toSeq.last == 0)
    assert(passThreadsLeft().isEmpty)
  }

  test("inParallel rethrows a failed task's own exception and leaves no thread running") {
    val tasks = Seq[() => Int](
      () => 1,
      () => throw new IllegalArgumentException("bad pass"),
      () => { Thread.sleep(200); 3 },
      () => 4,
    )
    val e = intercept[IllegalArgumentException](Tables.inParallel(tasks))
    assert(e.getMessage == "bad pass")
    assert(passThreadsLeft().isEmpty)
  }

  test("render produces an aligned table with all cells") {
    val s = Tables.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(1).startsWith("a"))
    assert(lines.drop(1).map(_.length).distinct.size <= 2) // aligned widths
  }
}
