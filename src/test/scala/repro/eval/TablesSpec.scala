package repro.eval

import repro.SparkSpec
import repro.bn.TestNets
import repro.counter.CounterLayout

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

  test("render produces an aligned table with all cells") {
    val s = Tables.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = s.split("\n")
    assert(lines.length == 4)
    assert(lines(1).startsWith("a"))
    assert(lines.drop(1).map(_.length).distinct.size <= 2) // aligned widths
  }
}
