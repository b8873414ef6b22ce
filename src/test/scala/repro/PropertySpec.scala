package repro

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.bn.{BayesianNetwork, NetworkGenerator}
import repro.core.EpsilonAllocation
import repro.counter.CounterLayout
import repro.util.{CheckProp, Rng}

/** ScalaCheck properties over randomly generated networks: the invariants
  * must hold for any structure, not just the hand-built test nets.
  */
class PropertySpec extends AnyFunSuite with CheckProp {

  private val genNet: Gen[BayesianNetwork] = for {
    n <- Gen.choose(2, 15)
    maxPar <- Gen.choose(1, 3)
    cap = (1 until n).map(i => math.min(i, maxPar)).sum
    e <- Gen.choose(0, cap)
    maxCard <- Gen.choose(2, 5)
    seed <- Gen.choose(0L, 1000000L)
  } yield NetworkGenerator.random(s"prop", n, e, maxCard, maxPar, seed)

  test("property: parentCode/decode round-trips on sampled assignments") {
    checkProp(Prop.forAll(genNet, Gen.choose(0L, 1000L)) { (net, id) =>
      val x = net.sample(7L, id)
      (0 until net.n).forall { i =>
        net.decodeParentCode(i, net.parentCode(i, x)).sameElements(net.parents(i).map(x(_)))
      }
    }, tests = 60)
  }

  test("property: sampled assignments always satisfy domain bounds") {
    checkProp(Prop.forAll(genNet, Gen.choose(0L, 1000L)) { (net, id) =>
      val x = net.sample(8L, id)
      x.indices.forall(i => x(i) >= 0 && x(i) < net.card(i))
    }, tests = 60)
  }

  test("property: jointProb of a sampled assignment is positive") {
    checkProp(Prop.forAll(genNet, Gen.choose(0L, 500L)) { (net, id) =>
      net.jointProb(net.sample(9L, id)) > 0.0
    }, tests = 40)
  }

  test("property: counter layout ids form a bijection onto [0, numCounters)") {
    checkProp(Prop.forAll(genNet) { net =>
      val lay = CounterLayout.standard(net)
      val ids = (for {
        i <- 0 until net.n
        u <- 0 until net.parentCard(i)
        v <- -1 until net.card(i)
      } yield if (v == -1) lay.parentCounter(i, u) else lay.childCounter(i, v, u)).sorted
      ids == (0 until lay.numCounters)
    }, tests = 40)
  }

  test("property: foreachUpdate touches exactly 2n distinct counters") {
    checkProp(Prop.forAll(genNet, Gen.choose(0L, 200L)) { (net, id) =>
      val lay = CounterLayout.standard(net)
      val seen = scala.collection.mutable.Set.empty[Int]
      lay.foreachUpdate(net.sample(10L, id))(seen += _)
      seen.size == 2 * net.n
    }, tests = 40)
  }

  test("property: nonuniform allocation always meets the variance budget") {
    checkProp(Prop.forAll(genNet, Gen.choose(1, 9).map(_ / 10.0)) { (net, eps) =>
      val a = EpsilonAllocation.NonUniform(eps, net)
      val nuSum = (0 until net.n).map(i => a.nu(i) * a.nu(i)).sum
      val muSum = (0 until net.n).map(i => a.mu(i) * a.mu(i)).sum
      math.abs(nuSum - eps * eps / 256) < 1e-9 && math.abs(muSum - eps * eps / 256) < 1e-9
    }, tests = 40)
  }

  test("property: nonuniform cost never exceeds uniform cost in the model") {
    checkProp(Prop.forAll(genNet) { net =>
      val eps = 0.1
      val non = EpsilonAllocation.NonUniform(eps, net)
      val uni = EpsilonAllocation.Uniform(eps, net.n)
      val jk = (0 until net.n).map(i => net.card(i).toDouble * net.parentCard(i))
      val costNon = (0 until net.n).map(i => jk(i) / non.nu(i)).sum
      val costUni = (0 until net.n).map(i => jk(i) / uni.nu(i)).sum
      costNon <= costUni * (1 + 1e-9) &&
        EpsilonAllocation.modelRatio(net.card, net.parentCard) <= 1 + 1e-9
    }, tests = 40)
  }

  test("property: gamma is monotone under cardinality growth") {
    checkProp(Prop.forAll(genNet, Gen.choose(0, 14)) { (net, idx) =>
      val i = idx % net.n
      val bigger = net.card.clone(); bigger(i) += 1
      EpsilonAllocation.gamma(bigger, net.parentCard) >=
        EpsilonAllocation.gamma(net.card, net.parentCard)
    }, tests = 40)
  }

  test("property: numParameters equals the brute-force sum") {
    checkProp(Prop.forAll(genNet) { net =>
      val brute = (0 until net.n).map(i => (net.card(i) - 1).toLong * net.parentCard(i)).sum
      net.numParameters == brute
    }, tests = 40)
  }

  test("property: Rng.uniformInt is stable under repeated evaluation") {
    checkProp(Prop.forAll(Gen.choose(1, 50), Gen.choose(0L, Long.MaxValue / 2)) { (n, a) =>
      Rng.uniformInt(n, a, a + 1) == Rng.uniformInt(n, a, a + 1)
    })
  }
}
