package repro.sparkstream

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bn.{BayesianNetwork, Event}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{Coordinator, CounterLayout}
import repro.util.Rng

/** What one site sends back for one micro-batch.
  *
  * `eventIds` are the site's events of the batch in ascending id order.
  * The protocol messages follow in emission order, run-length encoded by
  * event: event j sent messages `msgEnd(j - 1) until msgEnd(j)` (from 0 for
  * j = 0), each reporting counter `msgCounter(t)` at the site's exact local
  * count `msgLocal(t)`. `stateCounter` and `stateLocal` are the end-of-batch
  * local counts of every counter the batch touched; they are not protocol
  * messages (in a real deployment they would stay at the site) and only let
  * the next batch resume.
  */
private[sparkstream] final case class SiteBatch(
    site: Int,
    eventIds: Array[Long],
    msgEnd: Array[Int],
    msgCounter: Array[Int],
    msgLocal: Array[Int],
    stateCounter: Array[Int],
    stateLocal: Array[Int],
)

/** Spark micro-batch realization of the continuous monitoring protocol.
  *
  * Each batch runs as one plain RDD job: events keyed by site, grouped, and
  * each site replayed by `MicroBatchEngine.replaySite` in arrival order
  * against its carried local counts, flipping the per-increment coins with
  * the reporting probabilities the coordinator published at the start of
  * the batch. Every site returns a single packed `SiteBatch`, so what
  * reaches the driver is the protocol's messages as primitive arrays plus
  * one record per site. Unlike a Dataset aggregation, the job needs no
  * Catalyst planning and leaves no SQL-execution record on the driver.
  *
  * The driver plays the coordinator: a k-way merge of the sites' message
  * arrays by event id folds every message in `(eventId, counter)` order,
  * with the inverse probability taken from the batch's own p array — the
  * value the site used for its coin.
  *
  * Compared with the sequential driver, the only semantic difference is
  * that reporting probabilities refresh at batch boundaries instead of on
  * each acknowledgement, so the two engines send different messages in
  * approximate mode.
  */
final class MicroBatchEngine(
    val net: BayesianNetwork,
    val layout: CounterLayout,
    allocation: EpsilonAllocation,
    val k: Int,
    seed: Long,
    pScale: Double,
) {

  val coordinator = new Coordinator(layout.numCounters, k, allocation.epsArray(layout), pScale)
  private val siteLocal: Array[Array[Int]] = Array.fill(k)(new Array[Int](layout.numCounters))
  private var processed = 0L

  def messages: Long = coordinator.messages
  def eventsProcessed: Long = processed
  def model: BNModel = new BNModel(net, layout, coordinator.estimate)

  /** Process one micro-batch of events. Returns messages emitted by it. */
  def processBatch(spark: SparkSession, batch: Dataset[Event]): Long = {
    val before = coordinator.messages
    val sc = spark.sparkContext
    val pArr = Array.tabulate(layout.numCounters)(coordinator.pFor)
    val bcP = sc.broadcast(pArr)
    val bcLocal = sc.broadcast(siteLocal)
    val bcLayout = sc.broadcast(layout)
    val localSeed = seed

    val out: Array[SiteBatch] =
      try batch.rdd
        .map(e => (e.site, e))
        .groupByKey()
        .map { case (site, evs) =>
          MicroBatchEngine.replaySite(bcLayout.value, bcP.value, bcLocal.value(site), localSeed, site, evs)
        }
        .collect()
      finally { bcP.destroy(); bcLocal.destroy(); bcLayout.destroy() }

    fold(out, pArr)
    out.foreach { b =>
      for (j <- b.stateCounter.indices) siteLocal(b.site)(b.stateCounter(j)) = b.stateLocal(j)
      processed += b.eventIds.length
    }
    coordinator.messages - before
  }

  /** Fold every site's messages in `(eventId, counter)` order. An event
    * arrives at exactly one site, so a k-way merge on the sites' event ids
    * orders the events; one event's messages are then sorted by counter,
    * because a layout need not emit them in ascending order.
    */
  private def fold(out: Array[SiteBatch], pArr: Array[Double]): Unit = {
    val next = new Array[Int](out.length) // per site, the next event to fold
    val order = new Array[Int](2 * net.n) // an event makes at most 2n updates
    while (true) {
      var s = -1
      var i = 0
      while (i < out.length) {
        if (next(i) < out(i).eventIds.length &&
            (s < 0 || out(i).eventIds(next(i)) < out(s).eventIds(next(s)))) s = i
        i += 1
      }
      if (s < 0) return
      val b = out(s)
      val e = next(s)
      next(s) += 1
      val from = if (e == 0) 0 else b.msgEnd(e - 1)
      val len = b.msgEnd(e) - from
      // Insertion sort by counter: runs are short and usually sorted already.
      var j = 0
      while (j < len) {
        val c = b.msgCounter(from + j)
        var q = j
        while (q > 0 && b.msgCounter(order(q - 1)) > c) { order(q) = order(q - 1); q -= 1 }
        order(q) = from + j
        j += 1
      }
      j = 0
      while (j < len) {
        val t = order(j)
        val c = b.msgCounter(t)
        coordinator.receive(b.site, c, b.msgLocal(t), 1.0 / pArr(c))
        j += 1
      }
    }
  }

  /** Process a whole bounded stream in `numBatches` arrival-order slices. */
  def run(spark: SparkSession, events: Dataset[Event], m: Long, numBatches: Int): Unit = {
    val per = math.max(1L, (m + numBatches - 1) / numBatches)
    var lo = 0L
    while (lo < m) {
      val hi = math.min(m, lo + per)
      processBatch(spark, events.filter(e => e.id >= lo && e.id < hi))
      lo = hi
    }
  }
}

object MicroBatchEngine {
  def apply(net: BayesianNetwork, layout: CounterLayout, allocation: EpsilonAllocation,
            k: Int, seed: Long): MicroBatchEngine =
    new MicroBatchEngine(net, layout, allocation, k, seed, Coordinator.theoryScale(k))

  /** One site's share of a batch: replay its events in id order from the
    * carried local counts `carried`, sending each increment with the batch's
    * reporting probability `p(c)` under the coin key `(site << 32) | c`.
    */
  private def replaySite(layout: CounterLayout, p: Array[Double], carried: Array[Int], seed: Long,
                         site: Int, events: Iterable[Event]): SiteBatch = {
    val evs = events.toArray.sortBy(_.id)
    val local = carried.clone()
    val msgEnd = new Array[Int](evs.length)
    val bound = evs.length * 2 * layout.net.n // every update may send
    val msgCounter = new Array[Int](bound)
    val msgLocal = new Array[Int](bound)
    var sent = 0
    var j = 0
    while (j < evs.length) {
      layout.foreachUpdate(evs(j).x) { c =>
        local(c) += 1
        val pc = p(c)
        if (pc >= 1.0 || Rng.uniform(seed, (site.toLong << 32) | c.toLong, local(c).toLong) < pc) {
          msgCounter(sent) = c
          msgLocal(sent) = local(c)
          sent += 1
        }
      }
      msgEnd(j) = sent
      j += 1
    }
    // Every touched counter grew, so the carried state is where local and
    // carried differ.
    val touched = Array.range(0, local.length).filter(c => local(c) != carried(c))
    SiteBatch(site, evs.map(_.id), msgEnd, msgCounter.take(sent), msgLocal.take(sent), touched, touched.map(local))
  }
}
