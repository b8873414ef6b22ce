package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.bn.{BayesianNetwork, Event}
import repro.core.{BNModel, SuffStats}
import repro.counter.{CounterLayout, ExactCounterBank}
import repro.eval.{ClsTest, CondQuery, Metrics, TestQueries}
import repro.stream.SequentialDriver

/** Run settings parsed from the command line. */
final case class Settings(workload: String, seed: Long, seconds: Int, trace: Boolean)

/** Benchmark entry point:
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints human-readable lines, then one JSON result as the last line.
  * With `--trace 0` the result holds the end-to-end metrics; with
  * `--trace 1` it holds the per-layer metrics of a traced run.
  */
object Main {
  /** The paper's settings (Section 6): k sites, error ε, test-set size. */
  val K = 30
  val Eps = 0.1
  val NTests = 1000
  /** Table2Bench's tolerance on an approximate algorithm's classification
    * error against the exact MLE's.
    */
  val ClsTolerance = 0.05
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())
  val ShufflePartitions = 8

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val s = Settings(
      workload = kv.getOrElse("workload", usage("missing --workload")),
      seed = kv.get("seed").map(_.toLong).getOrElse(42L),
      seconds = kv.get("seconds").map(_.toInt).getOrElse(10),
      trace = kv.get("trace").exists(_ == "1"),
    )
    val run = Workloads.all.getOrElse(s.workload,
      usage(s"unknown workload ${s.workload}; known: ${Workloads.all.keys.mkString(", ")}"))
    val report = new Report(s.workload)
    try run(s, report)
    finally sparkStarted.foreach(_.stop())
    report.print(s.trace)
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg")
    sys.exit(2)
  }

  private var sparkStarted: Option[SparkSession] = None

  /** A local Spark session; the first call starts it. */
  def spark(): SparkSession = sparkStarted.getOrElse {
    val s = SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .getOrCreate()
    sparkStarted = Some(s)
    s
  }

  /** One line recording where and how the run was made. */
  def environment(s: Settings, m: Long, pScale: Double, extra: String = ""): String = {
    val rt = Runtime.getRuntime
    val sparkPart = sparkStarted.map(sp =>
      s" master=${sp.sparkContext.master} shuffle_partitions=$ShufflePartitions").getOrElse(" master=none")
    f"env seed=${s.seed} m=$m k=$K eps=$Eps pScale=$pScale%.4f nproc=${rt.availableProcessors()} " +
      f"xmx_mb=${rt.maxMemory() / 1048576}$sparkPart java=${System.getProperty("java.version")} " +
      s"seconds=${s.seconds} trace=${if (s.trace) 1 else 0}$extra"
  }

  def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, secs(t0))
  }

  def median(xs: Seq[Double]): Double = Metrics.median(xs)

  /** Nearest-rank quantile. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1)))
  }

  /** Live heap in MB after a forced full collection; `keep` stays reachable
    * until the heap has been read.
    */
  def heapMb(keep: AnyRef*): Double = {
    System.gc(); System.gc()
    val used = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    java.lang.ref.Reference.reachabilityFence(keep)
    used / 1048576.0
  }

  /** Runs `body` while another thread forces a full collection every
    * `everyMs` and reads the heap in use after it. Returns the result and
    * the readings in MB: the live heap over the time `body` ran.
    */
  def liveHeapSamplesMb[T](everyMs: Long)(body: => T): (T, Seq[Double]) = {
    val mem = ManagementFactory.getMemoryMXBean
    // Written by the sampler only, read after it has been joined.
    val samples = ArrayBuffer.empty[Double]
    @volatile var running = true
    val sampler = new Thread(() => {
      while (running) {
        System.gc()
        samples += mem.getHeapMemoryUsage.getUsed / 1048576.0
        Thread.sleep(everyMs)
      }
    }, "perfbench-heap-sampler")
    sampler.setDaemon(true)
    sampler.start()
    val out = try body finally { running = false; sampler.join() }
    (out, samples.toSeq)
  }

  /** Repeats `body` until `seconds` have passed (at least once); returns
    * each repetition's result and wall seconds.
    */
  def repeatFor[T](seconds: Int)(body: => T): Seq[(T, Double)] = {
    val out = ArrayBuffer.empty[(T, Double)]
    val t0 = System.nanoTime()
    while (out.isEmpty || secs(t0) < seconds) out += timed(body)
    out.toSeq
  }

  /** Exact counts by Spark aggregation (`SuffStats.familyCounts`), one
    * estimate per counter.
    */
  def sparkEstimates(spark: SparkSession, layout: CounterLayout, events: Dataset[Event]): Array[Double] =
    SuffStats.toEstimates(layout, SuffStats.familyCounts(spark, layout.net, events).collect()
      .map(x => (x.getInt(0), x.getInt(1), x.getInt(2), x.getLong(3))))

  /** Exact reference pass: every increment forwarded to an exact bank. */
  def exactBank(layout: CounterLayout, events: Array[Event]): ExactCounterBank = {
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, events.iterator)
    bank
  }

  /** Every variable's child block and parent block in an exact reference
    * must each sum to the number of events.
    */
  def checkFamilySums(r: Report, layout: CounterLayout, est: Int => Double, m: Long): Unit = {
    val net = layout.net
    val bad = (0 until net.n).filter { i =>
      val jk = net.card(i) * net.parentCard(i)
      val child = (0 until jk).map(t => est(layout.childOffset(i) + t)).sum
      val parent = (0 until net.parentCard(i)).map(u => est(layout.parentCounter(i, u))).sum
      child != m.toDouble || parent != m.toDouble
    }
    r.check("exact reference family sums", bad.isEmpty,
      s"${net.n - bad.size}/${net.n} variables have child and parent counters summing to m=$m" +
        (if (bad.isEmpty) "" else s"; first bad variable ${bad.head}"))
  }

  /** Test events for the model evaluation, from the workload seed. */
  def testSets(net: BayesianNetwork, seed: Long): (IndexedSeq[CondQuery], IndexedSeq[ClsTest]) =
    (TestQueries.condQueries(net, NTests, minProb = 0.01, seed = seed), TestQueries.clsTests(net, NTests, seed))

  /** (classification error, relative error vs truth, relative error vs the
    * exact-MLE reference) of `model`.
    */
  def evaluate(model: BNModel, ref: BNModel, queries: Seq[CondQuery], tests: Seq[ClsTest]): (Double, Double, Double) =
    (Metrics.classificationError(model, tests), Metrics.relErrVsTruth(model, queries),
      Metrics.relErrVsRef(model, ref, queries))

  /** Self-time metrics of a traced run lasting `wallS` seconds: each
    * layer's self time, and the share of the untraced end-to-end wall
    * `learnS` that the weighted self times account for.
    */
  def reportSelfTimes(r: Report, tr: Tracer, wallS: Double, learnS: Double): Unit = {
    val self = tr.selfSeconds(weighted = false)
    for (layer <- Seq("bn", "counter", "stream", "core", "eval", "sparkstream"))
      r.layer(s"self.${layer}_s", self.getOrElse(layer, 0.0))
    r.layer("trace.wall_s", wallS)
    r.layer("trace.coverage", tr.selfSeconds(weighted = true).values.sum / learnS)
  }
}
