package repro.bench

import repro.SparkSpec
import repro.eval.DatasetResult
import repro.jobs.Table2And3

/** The shared Table 2/3 result grid, computed once per JVM for Table2Bench
  * and Table3Bench; `sbt "bench/test"` therefore pays for the expensive
  * runs exactly once. Its scale comes from `repro.jobs.JobSession`.
  */
object BenchConfig {
  lazy val grid: Seq[DatasetResult] = Table2And3.runAll(SparkSpec.shared)
}
