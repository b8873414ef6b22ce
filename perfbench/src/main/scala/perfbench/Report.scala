package perfbench

import scala.collection.mutable

/** Everything one benchmark run prints: end-to-end metrics, per-layer
  * metrics, output checks and the environment, plus the final JSON line.
  */
final class Report(val workload: String) {
  private val endToEnd = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val layers = mutable.LinkedHashMap.empty[String, Double]
  private val notes = mutable.ArrayBuffer.empty[String]
  var attempted = 0
  var failed = 0

  def metric(name: String, value: Double, unit: String): Unit = {
    require(Report.EndToEnd.exists(_._1 == name), s"unknown end-to-end metric $name")
    endToEnd(name) = (value, unit)
  }

  def layer(name: String, value: Double): Unit = {
    require(Report.PerLayer.exists(_._1 == name), s"unknown per-layer metric $name")
    layers(name) = value
  }

  /** A human-readable line printed above the JSON result. */
  def note(line: String): Unit = notes += line

  /** One output check. Failed checks are counted and described, never thrown. */
  def check(name: String, ok: Boolean, detail: => String): Unit = {
    attempted += 1
    if (!ok) failed += 1
    notes += s"check ${if (ok) "ok  " else "FAIL"} $name: $detail"
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  /** Human-readable lines, then the one-line JSON result as the last line. */
  def print(trace: Boolean): Unit = {
    notes.foreach(l => println(s"[$workload] $l"))
    endToEnd.foreach { case (n, (v, u)) => println(f"[$workload] $n%-20s ${num(v)} $u") }
    if (trace) Report.PerLayer.foreach { case (n, u) =>
      println(f"[$workload] $n%-38s ${num(layers.getOrElse(n, 0.0))} $u")
    }
    val chosen =
      if (trace) Report.PerLayer.map { case (n, u) => n -> (layers.getOrElse(n, 0.0), u) }
      else Report.EndToEnd.map { case (n, u) =>
        n -> endToEnd.getOrElse(n, throw new IllegalStateException(s"$workload did not set $n"))
      }
    val metrics = chosen.map { case (n, (v, u)) =>
      s""""$n": {"value": ${num(v)}, "unit": "$u"}"""
    }.mkString(", ")
    println(s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, "metrics": {$metrics}}""")
  }
}

object Report {
  /** End-to-end metrics every workload reports (name → unit). */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "events_per_s" -> "1/s",
    "learn_s" -> "s",
    "messages_per_event" -> "msg/event",
    "cls_err_over_mle" -> "ratio",
    "heap_mb" -> "MB",
  )

  /** Per-layer metrics of the traced run (name → unit). A layer a workload
    * does not run reports 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "bn.sample_s" -> "s",
    "bn.sample_events_per_s" -> "1/s",
    "counter.layout.encode_s" -> "s",
    "counter.bank.increment_s" -> "s",
    "counter.bank.increments" -> "count",
    "counter.bank.messages" -> "count",
    "counter.send_ratio" -> "fraction",
    "counter.exact_counters" -> "count",
    "counter.p_median" -> "probability",
    "counter.state_bytes_computed" -> "bytes",
    "counter.exact_bank_s" -> "s",
    "counter.rel_err_vs_mle" -> "fraction",
    "stream.driver_self_s" -> "s",
    "stream.snapshot_s" -> "s",
    "core.suffstats_s" -> "s",
    "core.model_eval_s" -> "s",
    "eval.queries_s" -> "s",
    "eval.cls_err" -> "fraction",
    "eval.rel_err_vs_truth" -> "fraction",
    "sparkstream.batches" -> "count",
    "sparkstream.batch_ms_p50" -> "ms",
    "sparkstream.batch_ms_p90" -> "ms",
    "sparkstream.job_s" -> "s",
    "sparkstream.driver_s" -> "s",
    "sparkstream.tasks" -> "count",
    "sparkstream.executor_run_s" -> "s",
    "sparkstream.executor_cpu_s" -> "s",
    "sparkstream.gc_s" -> "s",
    "sparkstream.shuffle_write_bytes" -> "bytes",
    "sparkstream.shuffle_read_bytes" -> "bytes",
    "sparkstream.result_bytes" -> "bytes",
    "sparkstream.broadcast_bytes_computed" -> "bytes",
    "sparkstream.seq_baseline_s" -> "s",
    "self.bn_s" -> "s",
    "self.counter_s" -> "s",
    "self.stream_s" -> "s",
    "self.core_s" -> "s",
    "self.eval_s" -> "s",
    "self.sparkstream_s" -> "s",
    "trace.wall_s" -> "s",
    "trace.coverage" -> "fraction",
    "trace.overhead_s" -> "s",
  )
}
