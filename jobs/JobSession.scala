package repro.jobs

import org.apache.spark.sql.SparkSession

/** The one reader of the environment: the shared SparkSession set-up and
  * the experiment knobs of every entrypoint, bench and test.
  */
object JobSession {
  private def env(name: String, default: String): String = sys.env.getOrElse(name, default)

  def get(app: String): SparkSession =
    SparkSession.builder
      .master(env("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", env("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** Env-tunable experiment scale (defaults = the paper's settings). */
  def m: Long = env("REPRO_M", "50000").toLong
  def k: Int = env("REPRO_K", "30").toInt
  def eps: Double = env("REPRO_EPS", "0.1").toDouble
  def nTests: Int = env("REPRO_TESTS", "1000").toInt
  def runs: Int = env("REPRO_RUNS", "3").toInt
  def seed: Long = env("REPRO_SEED", "42").toLong
  /** Counter reporting-probability scale; None = the variance-honoring √(2k). */
  def pScale: Option[Double] = sys.env.get("REPRO_PSCALE").map(_.toDouble)
  /** Checkpoints of the communication-vs-m sweep (Figure 9). */
  def sweepMs: Seq[Long] = env("REPRO_SWEEP_MS", "10000,50000,250000,1000000,4000000")
    .split(",").map(_.trim.toLong).toSeq
  /** Stream length of the NEW-ALARM comparison (Figure 11b). */
  def newAlarmM: Long = env("REPRO_NEWALARM_M", "2000000").toLong
}
