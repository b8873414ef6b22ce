package repro.eval

import java.util.concurrent.{Callable, ExecutionException, Executors, ThreadFactory, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.sql.SparkSession
import repro.bn.{BayesianNetwork, ForwardSampler}
import repro.core.{BNModel, EpsilonAllocation, SuffStats}
import repro.counter.{Coordinator, CounterLayout, DistCounterBank}
import repro.stream.{SequentialDriver, Snapshot}

/** One algorithm's outcome on one dataset (one table cell group). */
final case class AlgoResult(
    algo: String,
    messages: Long,
    clsErr: Double,
    errVsTruth: Double,
    errVsMle: Double,
)

/** All four algorithms on one dataset — one row of Tables 2 and 3. */
final case class DatasetResult(dataset: String, m: Long, k: Int, eps: Double,
                               results: Seq[AlgoResult]) {
  def apply(algo: String): AlgoResult = results.find(_.algo == algo)
    .getOrElse(throw new NoSuchElementException(s"no result for $algo"))
}

/** Harness reproducing the paper's experimental grid (Section 6): for a
  * network, stream m forward-sampled observations to k uniformly chosen
  * sites, maintain the model with each algorithm, then evaluate 1000
  * conditional-probability test events and 1000 classification tests.
  *
  * The EXACTMLE model is computed with Spark (distributed family-count
  * aggregation); its communication is exactly `updatesPerEvent · m`
  * messages (Lemma 5). The approximate algorithms run the monitoring
  * protocol per-event; their metrics are medians over `runs` independent
  * seeds, as in the paper (median of five runs).
  *
  * Those protocol passes (3 allocations × `runs`) share no state, so they
  * run `PassThreads` at a time; every message count and metric is the same
  * as one pass after another. Two, because each live pass holds its own
  * k × numCounters bank (2.1 MB on HEPAR II, about 71 MB on MUNIN): on 4
  * cores two take a HEPAR II row's wall time down by about 40% for about 4%
  * more live heap, while four would add about 14%.
  */
object Tables {

  /** How many protocol passes of one call run at the same time. */
  val PassThreads = 2

  val algoNames = Seq("exactmle", "baseline", "uniform", "nonuniform")

  def allocations(eps: Double, net: BayesianNetwork): Seq[EpsilonAllocation] = Seq(
    EpsilonAllocation.Baseline(eps, net.n),
    EpsilonAllocation.Uniform(eps, net.n),
    EpsilonAllocation.NonUniform(eps, net),
  )

  /** @param pScale reporting-probability scale of the distributed counters;
    *               None = the variance-honoring √(2k) (Lemma 4). Smaller
    *               values trade per-counter accuracy for communication —
    *               used to calibrate against the paper's implementation
    *               constants (see EXPERIMENTS.md).
    */
  def runDataset(spark: SparkSession, net: BayesianNetwork, m: Long, k: Int,
                 eps: Double, seed: Long, nTests: Int, runs: Int,
                 pScale: Option[Double] = None): DatasetResult = {
    val scale = pScale.getOrElse(Coordinator.theoryScale(k))
    val layout = CounterLayout.standard(net)
    val queries = TestQueries.condQueries(net, nTests, minProb = 0.01, seed = seed)
    val tests = TestQueries.clsTests(net, nTests, seed)

    // EXACTMLE: Spark aggregation of exact sufficient statistics.
    val events = ForwardSampler.events(spark, net, m, k, seed)
    val exactModel = SuffStats.exactModel(spark, net, layout, events)
    val exactRes = AlgoResult(
      "exactmle",
      messages = layout.updatesPerEvent.toLong * m,
      clsErr = Metrics.classificationError(exactModel, tests),
      errVsTruth = Metrics.relErrVsTruth(exactModel, queries),
      errVsMle = 0.0,
    )

    require(runs >= 1, s"need at least one run, got $runs")
    val allocs = allocations(eps, net)
    val passes = inParallel(for (alloc <- allocs; r <- 0 until runs) yield () => {
      val snap = protocolPass(net, layout, alloc, m, k, seed, seed + 7919L * (r + 1), scale).last
      val model = snap.model(net, layout)
      (snap.messages, Metrics.classificationError(model, tests),
        Metrics.relErrVsTruth(model, queries), Metrics.relErrVsRef(model, exactModel, queries))
    })
    val approx = allocs.zip(passes.grouped(runs)).map { case (alloc, perRun) =>
      AlgoResult(
        alloc.name,
        messages = Metrics.median(perRun.map(_._1.toDouble)).round,
        clsErr = Metrics.median(perRun.map(_._2)),
        errVsTruth = Metrics.median(perRun.map(_._3)),
        errVsMle = Metrics.median(perRun.map(_._4)),
      )
    }

    DatasetResult(net.name, m, k, eps, exactRes +: approx)
  }

  /** Communication vs stream length: the messages of every algorithm, in
    * `algoNames` order, at each checkpoint of `ms`. EXACTMLE is the
    * analytic `updatesPerEvent · m`; each approximate allocation is one
    * checkpointed pass over `ms.max` events, its protocol seeded by `seed`.
    * Figure 9's sweep, Figure 11(b) and the calibrated Table 3 companion
    * are all calls of this.
    */
  def messageSweep(net: BayesianNetwork, ms: Seq[Long], k: Int, eps: Double, seed: Long,
                   pScale: Option[Double] = None): Seq[(String, Seq[Long])] = {
    val scale = pScale.getOrElse(Coordinator.theoryScale(k))
    val layout = CounterLayout.standard(net)
    val allocs = allocations(eps, net)
    val approx = allocs.map(_.name).zip(inParallel(allocs.map { alloc => () =>
      val snaps = protocolPass(net, layout, alloc, ms.max, k, seed, seed, scale, ms)
      ms.map(m => snaps.find(_.m == m).get.messages)
    }))
    ("exactmle" -> ms.map(layout.updatesPerEvent.toLong * _)) +: approx
  }

  /** One sequential protocol pass of `alloc` over the first `m` events of
    * the stream sampled with `streamSeed`, through a fresh bank whose coins
    * are seeded with `bankSeed`; snapshots at `checkpoints`, or at the end
    * when there are none.
    */
  private def protocolPass(net: BayesianNetwork, layout: CounterLayout, alloc: EpsilonAllocation,
                           m: Long, k: Int, streamSeed: Long, bankSeed: Long, scale: Double,
                           checkpoints: Seq[Long] = Seq.empty): Seq[Snapshot] = {
    val bank = new DistCounterBank(layout.numCounters, k, alloc.epsArray(layout), bankSeed, scale)
    SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, k, streamSeed), checkpoints)
  }

  /** Runs `tasks` on a pool of `PassThreads` threads, created and shut down
    * by this call, and returns their results in submission order. A failed
    * task rethrows its own exception once the tasks already running have
    * ended; the tasks not yet started are dropped.
    */
  private[eval] def inParallel[A](tasks: Seq[() => A]): Seq[A] = {
    val pool = Executors.newFixedThreadPool(PassThreads, PassThreadFactory)
    try {
      val futures = tasks.map(t => pool.submit(new Callable[A] { def call(): A = t() }))
      futures.map(f => try f.get() catch { case e: ExecutionException => throw e.getCause })
    } finally {
      pool.shutdownNow()
      pool.awaitTermination(Long.MaxValue, TimeUnit.NANOSECONDS)
    }
  }

  /** Names the pass threads `tables-pass-<n>`; daemons, so they never hold
    * the JVM open.
    */
  private object PassThreadFactory extends ThreadFactory {
    private val n = new AtomicInteger()
    def newThread(r: Runnable): Thread = {
      val t = new Thread(r, s"tables-pass-${n.incrementAndGet()}")
      t.setDaemon(true)
      t
    }
  }

  /** Fixed-width table printer: header row + one line per dataset. */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(c => all.map(_(c).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (cell, w) => cell.padTo(w, ' ') }.mkString("  ")
    (s"== $title ==" +: line(header) +: rows.map(line)).mkString("\n")
  }
}
