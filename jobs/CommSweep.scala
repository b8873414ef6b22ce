package repro.jobs

import repro.bn.BayesianNetwork
import repro.eval.{Networks, Tables}

/** Communication cost vs number of training points (Figure 9's shape),
  * rendered from `Tables.messageSweep`: one pass per algorithm over the
  * largest m, with message counts captured at checkpoints. EXACTMLE grows
  * linearly (2·n·m); the approximate algorithms grow logarithmically once
  * counters pass their reporting thresholds.
  */
object CommSweep {

  def render(net: BayesianNetwork, k: Int, eps: Double, ms: Seq[Long],
             sweep: Seq[(String, Seq[Long])]): String =
    Tables.render(
      s"Communication cost vs training points (${net.name}, k=$k, eps=$eps), Figure 9 shape",
      Seq("algorithm") ++ ms.map(m => s"m=$m"),
      sweep.map { case (algo, msgs) => algo +: msgs.map(_.toString) })

  def main(args: Array[String]): Unit = {
    val net = Networks.alarm
    val ms = JobSession.sweepMs
    println(render(net, JobSession.k, JobSession.eps, ms,
      Tables.messageSweep(net, ms, JobSession.k, JobSession.eps, JobSession.seed, JobSession.pScale)))
  }
}
