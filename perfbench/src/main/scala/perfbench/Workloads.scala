package perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.bn.{BayesianNetwork, Event, ForwardSampler}
import repro.core.{BNModel, EpsilonAllocation, SuffStats}
import repro.counter.{Coordinator, CounterLayout, DistCounterBank}
import repro.eval.{Networks, Tables}
import repro.sparkstream.MicroBatchEngine
import repro.stream.{SequentialDriver, Snapshot}

import Main._

/** The two workloads. Each builds its inputs from the seed, warms up,
  * measures for the requested seconds, then checks its outputs against an
  * exact reference outside the timed phase.
  */
object Workloads {

  val all: Map[String, (Settings, Report) => Unit] = Map(
    "hepar2-table-row" -> tableRow,
    "alarm-microbatch" -> microBatch,
  )

  /** NONUNIFORM coordinator messages at seed 42; a change here means the
    * coin stream or the event stream changed.
    */
  val messagesAtSeed42: Map[String, Long] = Map(
    "hepar2-table-row" -> 6222256L,
    "alarm-microbatch" -> 3213504L,
  )

  /** Set-up steps repeated per run; set-up time is their median. */
  val SetupReps = 3

  private def checkSeed42(s: Settings, r: Report, messages: Long): Unit =
    if (s.seed == 42L) {
      val want = messagesAtSeed42(r.workload)
      r.check("seed-42 message count", messages == want, s"$messages messages, reference $want")
    }

  private def checkMessageCap(r: Report, layout: CounterLayout, m: Long, messages: Long): Unit = {
    val cap = layout.updatesPerEvent.toLong * m
    r.check("messages <= updatesPerEvent*m", messages <= cap, s"$messages <= $cap")
  }

  /** Accuracy of the learned model against the exact MLE on the same
    * events and tests: the end-to-end ratio, the raw errors, and the checks.
    * Only the ratio is end to end: the raw errors move with the seed's test
    * set by more than a regression bound could allow.
    */
  private def reportAccuracy(r: Report, cls: Double, exactCls: Double, truthErr: Double,
                             exactTruthErr: Double, relErrVsMle: Double, maxRel: Double): Unit = {
    r.metric("cls_err_over_mle", cls / exactCls, "ratio")
    r.layer("eval.cls_err", cls)
    r.layer("eval.rel_err_vs_truth", truthErr)
    r.layer("counter.rel_err_vs_mle", relErrVsMle)
    r.note(f"cls_err=$cls%.4f (exact MLE $exactCls%.4f) rel_err_vs_truth=$truthErr%.6f " +
      f"(exact MLE $exactTruthErr%.6f) rel_err_vs_mle=$relErrVsMle%.6f")
    r.check("classification error near exact MLE", math.abs(cls - exactCls) <= ClsTolerance,
      f"|$cls%.4f - $exactCls%.4f| <= $ClsTolerance")
    r.check("rel_err_vs_mle bounded", relErrVsMle <= maxRel, f"$relErrVsMle%.6f <= $maxRel")
  }

  /** `reportAccuracy` for a model and the exact counts `exactEst`. */
  private def reportModelAccuracy(r: Report, net: BayesianNetwork, layout: CounterLayout, model: BNModel,
                                  exactEst: Array[Double], seed: Long, maxRel: Double): BNModel = {
    val (queries, tests) = testSets(net, seed)
    val exactModel = BNModel.fromArray(net, layout, exactEst)
    val (cls, truthErr, relMle) = evaluate(model, exactModel, queries, tests)
    val (exactCls, exactTruthErr, _) = evaluate(exactModel, exactModel, queries, tests)
    reportAccuracy(r, cls, exactCls, truthErr, exactTruthErr, relMle, maxRel)
    exactModel
  }

  /** Protocol counters still exact (p = 1) and the median reporting
    * probability after a run.
    */
  private def reportProbabilities(r: Report, coord: Coordinator): Unit = {
    val ps = Array.tabulate(coord.numCounters)(coord.pFor)
    r.layer("counter.exact_counters", ps.count(_ >= 1.0).toDouble)
    r.layer("counter.p_median", median(ps.toSeq))
    // Bank: local counts (Int) + site probabilities (Double); coordinator:
    // last report (Int) + inverse p (Double) per (site, counter), plus
    // estimate and ε per counter.
    r.layer("counter.state_bytes_computed",
      24.0 * coord.k * coord.numCounters + 16.0 * coord.numCounters)
  }

  /** Traced driver pass over the program's own bank: (snapshot, wall
    * seconds, span id).
    */
  private def driverPass(tr: Tracer, layout: CounterLayout, events: Array[Event], bank: DistCounterBank,
                         weight: Double): (Snapshot, Double, Int) = {
    val (snap, wall) = timed(tr.span("stream", "driver", weight)(
      SequentialDriver.run(layout, bank, events.iterator).last))
    (snap, wall, tr.lastId("driver"))
  }

  /** The same pass over a null bank, a probe: it costs only the event loop
    * and the encoding. It must follow every measured driver pass, so that
    * those see only the bank class the workload itself uses.
    */
  private def nullPass(tr: Tracer, r: Report, layout: CounterLayout, events: Array[Event]): Double = {
    val (_, loopS) = timed(tr.span("stream", "driver_null_bank", weight = 0)(
      SequentialDriver.run(layout, NullBank, events.iterator)))
    r.layer("stream.driver_self_s", loopS)
    loopS
  }

  /** Records each driver pass's bank time (its wall minus the null-bank
    * pass) as that span's counter child, and reports the bank metrics of
    * the last pass, made over `bank` on m events.
    */
  private def reportBank(tr: Tracer, r: Report, layout: CounterLayout, m: Long, passes: Seq[(Int, Double)],
                         bank: DistCounterBank, loopS: Double): Unit = {
    passes.foreach { case (id, wall) => tr.addInner(id, "counter", ((wall - loopS) * 1e9).toLong) }
    val increments = layout.updatesPerEvent.toLong * m
    r.layer("counter.bank.increment_s", passes.last._2 - loopS)
    r.layer("counter.bank.increments", increments.toDouble)
    r.layer("counter.bank.messages", bank.messages.toDouble)
    r.layer("counter.send_ratio", bank.messages.toDouble / increments)
    reportProbabilities(r, bank.coordinator)
  }

  private def sampleProbe(tr: Tracer, r: Report, net: BayesianNetwork, m: Int, seed: Long,
                          weight: Double = 1.0): Array[Event] = {
    val (ev, s) = timed(tr.span("bn", "sample", weight)(ForwardSampler.localEvents(net, m, K, seed).toArray))
    r.layer("bn.sample_s", s)
    r.layer("bn.sample_events_per_s", m / s)
    ev
  }

  /** Encoding alone, into a counting sink: a probe, since the driver pass
    * already encodes every event.
    */
  private def encodeProbe(tr: Tracer, r: Report, layout: CounterLayout, events: Array[Event]): Unit = {
    val (updates, s) = timed(tr.span("counter", "encode", weight = 0) {
      var cnt = 0L
      events.foreach(e => layout.foreachUpdate(e.x)(_ => cnt += 1))
      cnt
    })
    r.layer("counter.layout.encode_s", s)
    r.check("encoding touches updatesPerEvent counters per event",
      updates == layout.updatesPerEvent.toLong * events.length, s"$updates updates")
  }

  // ---------------------------------------------------------------- table row

  val RowM = 50000L
  val RowRuns = 3
  /** The row's learning passes: one Spark exact-MLE aggregation plus
    * (three allocations × RowRuns) protocol passes.
    */
  val RowPasses: Int = 1 + 3 * RowRuns
  /** Interval of the forced collections that sample a row's live heap. */
  val HeapSampleMs = 100L

  /** One Table 2/3 row: `Tables.runDataset` on HEPAR II. */
  def tableRow(s: Settings, r: Report): Unit = {
    val t0 = System.nanoTime()
    val spark = Main.spark()
    val net = Networks.hepar2
    // Warm-up: a small row runs every stage once (Spark planning and code
    // generation, the JIT for sampling, the protocol and the evaluation).
    Tables.runDataset(spark, net, 5000L, K, Eps, s.seed, nTests = 200, runs = 1)
    val warmS = secs(t0)
    // Repeatable set-up step: building the test sets of a full row.
    val qS = (1 to SetupReps).map(_ => timed(testSets(net, s.seed))._2)
    r.metric("setup_s", warmS + median(qS), "s")
    val pScale = Coordinator.theoryScale(K)
    r.note(environment(s, RowM, pScale, s" network=${net.name} runs=$RowRuns nTests=$NTests"))

    def row() = Tables.runDataset(spark, net, RowM, K, Eps, s.seed, NTests, RowRuns)
    val rows = repeatFor(s.seconds)(row())
    val walls = rows.map(_._2)
    val res = rows.last._1
    val non = res("nonuniform")
    r.metric("events_per_s", RowM.toDouble * RowPasses * walls.size / walls.sum, "1/s")
    r.metric("learn_s", median(walls), "s")
    r.metric("messages_per_event", non.messages.toDouble / RowM, "msg/event")
    // runDataset keeps nothing once it returns, so its state is measured
    // while it runs: one more row, outside the timed phase, under forced
    // collections. The median reading is the live heap through the
    // protocol passes, which take most of a row; the maximum is a Spark
    // aggregation's transient buffers, caught or missed by the sampling.
    val (heapRow, heapSamples) = liveHeapSamplesMb(HeapSampleMs)(row())
    r.metric("heap_mb", median(heapSamples), "MB")
    r.note(f"heap samples=${heapSamples.size} max_mb=${heapSamples.max}%.1f")
    r.note(f"rows=${walls.size} row_s=${walls.map(w => f"$w%.3f").mkString(",")}")
    res.results.foreach(a => r.note(f"${a.algo}%-10s messages=${a.messages}%d cls_err=${a.clsErr}%.4f " +
      f"rel_err_vs_truth=${a.errVsTruth}%.5f rel_err_vs_mle=${a.errVsMle}%.5f"))

    val layout = CounterLayout.standard(net)
    val exactMsgs = res("exactmle").messages
    r.check("EXACTMLE messages = 2*n*m", exactMsgs == 2L * net.n * RowM, s"$exactMsgs vs ${2L * net.n * RowM}")
    for (a <- Seq("baseline", "uniform", "nonuniform")) {
      r.check(s"$a messages <= EXACTMLE", res(a).messages <= exactMsgs, s"${res(a).messages}")
      if (a != "nonuniform") r.check(s"$a classification error near exact MLE",
        math.abs(res(a).clsErr - res("exactmle").clsErr) <= ClsTolerance,
        f"|${res(a).clsErr}%.4f - ${res("exactmle").clsErr}%.4f| <= $ClsTolerance")
    }
    val ex = res("exactmle")
    reportAccuracy(r, non.clsErr, ex.clsErr, non.errVsTruth, ex.errVsTruth, non.errVsMle, maxRel = 0.05)
    r.check("rows repeat", heapRow == res && rows.forall(_._1 == res), s"${rows.size + 1} identical rows")
    val est = sparkEstimates(spark, layout, ForwardSampler.events(spark, net, RowM, K, s.seed))
    checkFamilySums(r, layout, est(_), RowM)
    checkSeed42(s, r, non.messages)

    if (s.trace) rowTrace(s, r, net, layout, median(walls))
  }

  /** Unit costs of the calls one row is built from, each timed once on the
    * row's inputs and weighted by how often the row makes it. Probes the
    * row does not make on its own (the null bank, encoding alone, the exact
    * bank, snapshots outside the driver, micro-batches) have weight 0 and
    * run after every measured call.
    */
  private def rowTrace(s: Settings, r: Report, net: BayesianNetwork, layout: CounterLayout,
                       rowS: Double): Unit = {
    val spark = Main.spark()
    val allocs = Tables.allocations(Eps, net)
    def newBank(alloc: EpsilonAllocation) = new DistCounterBank(layout.numCounters, K, alloc.epsArray(layout),
      s.seed + 7919L, Coordinator.theoryScale(K))
    val tr = new Tracer(true)
    val t0 = System.nanoTime()
    // Each protocol pass draws its events from ForwardSampler.localEvents.
    val events = sampleProbe(tr, r, net, RowM.toInt, s.seed, weight = 3 * RowRuns)
    // Untraced NONUNIFORM passes, the reference for the tracing overhead.
    val (plainWalls, plainS) = timed((1 to 3).map(_ => timed(SequentialDriver.run(layout, newBank(allocs.last),
      events.iterator))._2))
    val plainNon = median(plainWalls)
    val passes = allocs.map { alloc =>
      val bank = newBank(alloc)
      val (snap, wall, id) = driverPass(tr, layout, events, bank, weight = RowRuns)
      (bank, snap, id, wall)
    }
    // NONUNIFORM runs last.
    val (nonBank, nonSnap, _, nonTraced) = passes.last
    r.layer("sparkstream.seq_baseline_s", nonTraced)
    r.layer("trace.overhead_s", (nonTraced - plainNon) * 3 * RowRuns)
    val (queries, tests) = tr.span("eval", "queries")(testSets(net, s.seed))
    r.layer("eval.queries_s", tr.total("queries"))
    val (exactModel, sufS) = timed(tr.span("core", "suffstats")(
      SuffStats.exactModel(spark, net, layout, ForwardSampler.events(spark, net, RowM, K, s.seed))))
    r.layer("core.suffstats_s", sufS)
    val (_, evalS) = timed(tr.span("core", "model_eval", weight = 1 + 3 * RowRuns)(
      evaluate(nonSnap.model(net, layout), exactModel, queries, tests)))
    r.layer("core.model_eval_s", evalS)

    val loopS = nullPass(tr, r, layout, events)
    reportBank(tr, r, layout, RowM, passes.map(p => (p._3, p._4)), nonBank, loopS)
    encodeProbe(tr, r, layout, events)
    val (_, snapS) = timed(tr.span("stream", "snapshot", weight = 0)(
      Snapshot(RowM, nonBank.messages, Array.tabulate(layout.numCounters)(nonBank.estimate))))
    r.layer("stream.snapshot_s", snapS)
    val (_, exactS) = timed(tr.span("counter", "exact_bank", weight = 0)(exactBank(layout, events)))
    r.layer("counter.exact_bank_s", exactS)
    // What the row's NONUNIFORM pass costs on the micro-batch schedule.
    val sparkEvents = ForwardSampler.events(spark, net, RowM, K, s.seed).cache()
    val (_, probeMs) = sparkstreamProbe(tr, r, spark, MicroBatchEngine(net, layout, allocs.last, K, s.seed),
      sparkEvents, RowM, layout, weight = 0)
    sparkEvents.unpersist(blocking = true)
    r.layer("sparkstream.batches", probeMs.size.toDouble)
    r.layer("sparkstream.batch_ms_p50", median(probeMs))
    r.layer("sparkstream.batch_ms_p90", quantile(probeMs, 0.9))
    // Coverage is against the untraced row: the weighted unit costs
    // rebuild one row's time.
    reportSelfTimes(r, tr, secs(t0) - plainS, learnS = rowS)
  }

  // ---------------------------------------------------------------- micro-batch

  val BatchM = 50000L
  val NumBatches = 20

  /** `MicroBatchEngine` on ALARM over events cached in Spark, timed per
    * `processBatch` with the slicing `MicroBatchEngine.run` uses.
    */
  def microBatch(s: Settings, r: Report): Unit = {
    val t0 = System.nanoTime()
    val spark = Main.spark()
    val net = Networks.alarm
    val layout = CounterLayout.standard(net)
    val alloc = EpsilonAllocation.NonUniform(Eps, net)
    val sparkS = secs(t0)
    var events: Dataset[Event] = null
    val cacheS = (1 to SetupReps).map { _ =>
      if (events != null) events.unpersist(blocking = true)
      val (ds, t) = timed {
        val ds = ForwardSampler.events(spark, net, BatchM, K, s.seed).cache()
        ds.count()
        ds
      }
      events = ds
      t
    }
    // Warm-up: one whole engine run through its own batching loop; its
    // message count is the reference for the timed per-batch loop.
    val (warm, warmS) = timed {
      val e = MicroBatchEngine(net, layout, alloc, K, s.seed)
      e.run(spark, events, BatchM, NumBatches)
      e
    }
    r.metric("setup_s", sparkS + median(cacheS) + warmS, "s")
    val pScale = Coordinator.theoryScale(K)
    r.note(environment(s, BatchM, pScale, s" network=${net.name} batches=$NumBatches"))

    def newEngine() = MicroBatchEngine(net, layout, alloc, K, s.seed)
    // Batches run until the time is up; only whole engine runs count for
    // learn_s and the checks, and the first one always completes.
    val batchMs = ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + s.seconds * 1000000000L
    val untraced = new Tracer(false)
    var (eng, firstS) = timed(engineRun(spark, newEngine(), events, BatchM, untraced, batchMs).get)
    // (messages, events processed) of every whole engine run, and its wall.
    val runs = ArrayBuffer(((eng.messages, eng.eventsProcessed), firstS))
    while (System.nanoTime() < deadline) {
      val (e, w) = timed(engineRun(spark, newEngine(), events, BatchM, untraced, batchMs, deadline))
      e.foreach { x => eng = x; runs += (((x.messages, x.eventsProcessed), w)) }
    }
    val walls = runs.map(_._2).toSeq
    r.metric("events_per_s", BatchM / NumBatches / (median(batchMs.toSeq) / 1000.0), "1/s")
    r.metric("learn_s", median(walls), "s")
    r.metric("messages_per_event", eng.messages.toDouble / BatchM, "msg/event")
    r.metric("heap_mb", heapMb(events, eng), "MB")
    r.layer("sparkstream.batches", batchMs.size.toDouble)
    r.layer("sparkstream.batch_ms_p50", median(batchMs.toSeq))
    r.layer("sparkstream.batch_ms_p90", quantile(batchMs.toSeq, 0.9))
    r.note(f"engine_runs=${runs.size} batches=${batchMs.size} batch_ms_p50=${median(batchMs.toSeq)}%.2f " +
      f"batch_ms_p90=${quantile(batchMs.toSeq, 0.9)}%.2f")

    // The exact reference comes from Spark, not from the sequential driver,
    // so that the traced sequential pass below is the driver's first.
    val exactEst = sparkEstimates(spark, layout, events)
    val exactModel = reportModelAccuracy(r, net, layout, eng.model, exactEst, s.seed, maxRel = 0.05)

    r.check("eventsProcessed == m", runs.forall(_._1._2 == BatchM),
      s"${runs.map(_._1._2).distinct.mkString(",")} vs $BatchM")
    checkMessageCap(r, layout, BatchM, eng.messages)
    r.check("per-batch loop repeats MicroBatchEngine.run", runs.forall(_._1._1 == warm.messages),
      s"${runs.map(_._1._1).distinct.mkString(",")} vs ${warm.messages}")
    checkFamilySums(r, layout, exactEst(_), BatchM)
    checkSeed42(s, r, eng.messages)

    if (s.trace) {
      // Only the traced engine run is work the workload makes (weight 1);
      // every other call is a probe, made after it.
      val tr = new Tracer(true)
      val tt = System.nanoTime()
      val ((traced, _), tracedS) = timed(sparkstreamProbe(tr, r, spark, newEngine(), events, BatchM, layout))
      r.check("traced engine repeats the untraced messages", traced.messages == eng.messages,
        s"${traced.messages} vs ${eng.messages}")
      r.layer("trace.overhead_s", tracedS - median(walls))
      tr.span("bn", "sample", weight = 0) {
        val ds = ForwardSampler.events(spark, net, BatchM, K, s.seed).cache()
        ds.count()
        ds.unpersist(blocking = true)
      }
      r.layer("bn.sample_s", tr.total("sample"))
      r.layer("bn.sample_events_per_s", BatchM / tr.total("sample"))

      val local = events.collect().sortBy(_.id)
      val seqBank = new DistCounterBank(layout.numCounters, K, alloc.epsArray(layout), s.seed, pScale)
      val (_, seqS, seqId) = driverPass(tr, layout, local, seqBank, weight = 0)
      r.layer("sparkstream.seq_baseline_s", seqS)
      val loopS = nullPass(tr, r, layout, local)
      reportBank(tr, r, layout, BatchM, Seq(seqId -> seqS), seqBank, loopS)
      encodeProbe(tr, r, layout, local)
      val (_, snapS) = timed(tr.span("stream", "snapshot", weight = 0)(
        Snapshot(BatchM, seqBank.messages, Array.tabulate(layout.numCounters)(seqBank.estimate))))
      r.layer("stream.snapshot_s", snapS)
      val (exact, exactS) = timed(tr.span("counter", "exact_bank", weight = 0)(exactBank(layout, local)))
      r.layer("counter.exact_bank_s", exactS)
      r.check("exact bank equals the Spark family counts",
        exactEst.indices.forall(c => exactEst(c) == exact.estimate(c)), s"${exactEst.length} counters")
      val (_, sufS) = timed(tr.span("core", "suffstats", weight = 0)(sparkEstimates(spark, layout, events)))
      r.layer("core.suffstats_s", sufS)
      val ((queries, tests), qS) = timed(tr.span("eval", "queries", weight = 0)(testSets(net, s.seed)))
      r.layer("eval.queries_s", qS)
      val (_, evalS) = timed(tr.span("core", "model_eval", weight = 0)(
        evaluate(traced.model, exactModel, queries, tests)))
      r.layer("core.model_eval_s", evalS)
      // Coverage is against one untraced engine run.
      reportSelfTimes(r, tr, secs(tt), learnS = median(walls))
      r.note(s"sequential baseline messages=${seqBank.messages} (sites refresh p on every ack, " +
        "so this differs from the engine's per-batch refresh)")
    }
  }

  /** One engine over `events` (ids 0 until m) in `NumBatches` slices, as
    * `MicroBatchEngine.run` slices them, timing each `processBatch` into
    * `batchMs` and stopping early at `deadline`. The engine is returned
    * only when it saw every batch.
    */
  private def engineRun(spark: SparkSession, e: MicroBatchEngine, events: Dataset[Event], m: Long, tr: Tracer,
                        batchMs: ArrayBuffer[Double], deadline: Long = Long.MaxValue,
                        weight: Double = 1.0): Option[MicroBatchEngine] = {
    val per = (m + NumBatches - 1) / NumBatches
    var lo = 0L
    while (lo < m && System.nanoTime() < deadline) {
      val from = lo
      val until = math.min(m, lo + per)
      val b = events.filter(ev => ev.id >= from && ev.id < until)
      batchMs += timed(tr.span("sparkstream", "batch", weight)(e.processBatch(spark, b)))._2 * 1000.0
      lo = until
    }
    if (lo == m) Some(e) else None
  }

  /** One whole traced engine run under a `SparkListener`: per-batch Spark
    * job time, driver time (batch wall minus job time) and task metrics.
    * Returns the engine and its batch walls in milliseconds.
    */
  private def sparkstreamProbe(tr: Tracer, r: Report, spark: SparkSession, e: MicroBatchEngine,
                               events: Dataset[Event], m: Long, layout: CounterLayout,
                               weight: Double = 1.0): (MicroBatchEngine, Seq[Double]) = {
    val listener = new BatchListener
    val batchMs = ArrayBuffer.empty[Double]
    spark.sparkContext.addSparkListener(listener)
    val engine =
      try engineRun(spark, e, events, m, tr, batchMs, weight = weight).get
      finally {
        org.apache.spark.Drain(spark.sparkContext)
        spark.sparkContext.removeSparkListener(listener)
      }
    val nb = NumBatches.toDouble
    r.layer("sparkstream.job_s", listener.jobNs / 1e9 / nb)
    r.layer("sparkstream.driver_s", (batchMs.sum / 1e3 - listener.jobNs / 1e9) / nb)
    r.layer("sparkstream.tasks", listener.tasks / nb)
    r.layer("sparkstream.executor_run_s", listener.executorRunMs / 1e3 / nb)
    r.layer("sparkstream.executor_cpu_s", listener.executorCpuNs / 1e9 / nb)
    r.layer("sparkstream.gc_s", listener.gcMs / 1e3 / nb)
    r.layer("sparkstream.shuffle_write_bytes", listener.shuffleWriteBytes / nb)
    r.layer("sparkstream.shuffle_read_bytes", listener.shuffleReadBytes / nb)
    r.layer("sparkstream.result_bytes", listener.resultBytes / nb)
    // Per batch: the p array (Double per counter), the site-local counts
    // (Int per site and counter) and the layout.
    r.layer("sparkstream.broadcast_bytes_computed",
      8.0 * layout.numCounters + 4.0 * K * layout.numCounters + serializedSize(layout))
    (engine, batchMs.toSeq)
  }

  private def serializedSize(o: AnyRef): Double = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(o)
    out.close()
    bytes.size().toDouble
  }
}
