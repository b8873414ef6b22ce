package perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import repro.counter.CounterBank

/** One recorded span: a call into layer `layer`, nested under `parent`
  * (-1 for a top-level span). `weight` says how many times the enclosing
  * workload repeats this call, for unit costs timed once (1 otherwise).
  */
final case class Span(id: Int, parent: Int, layer: String, name: String,
                      startNs: Long, endNs: Long, weight: Double) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are only kept when `enabled`; with
  * tracing off `span` is a plain call, so the untraced run pays nothing but
  * one branch per call site (call sites are per pass or per batch, never
  * per event).
  */
final class Tracer(val enabled: Boolean) {
  val spans = ArrayBuffer.empty[Span]
  /** Child time measured by difference inside a span, keyed by the span id
    * it belongs to: (span id, layer, nanoseconds).
    */
  val inner = ArrayBuffer.empty[(Int, String, Long)]
  private var stack: List[Int] = Nil

  def span[T](layer: String, name: String, weight: Double = 1.0)(body: => T): T = {
    if (!enabled) return body
    val id = spans.size
    spans += null
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      spans(id) = Span(id, parent, layer, name, t0, t1, weight)
    }
  }

  /** Id of the latest span called `name`. */
  def lastId(name: String): Int = spans.lastIndexWhere(_.name == name)

  /** Attribute `ns` of `layer` time to the child part of span `id`. */
  def addInner(id: Int, layer: String, ns: Long): Unit =
    if (enabled) inner += ((id, layer, ns))

  def total(name: String): Double = spans.filter(_.name == name).map(_.durNs).sum / 1e9

  /** Self seconds per layer: each span's duration minus the part its child
    * spans and recorded inner time cover, multiplied by the span's weight
    * when `weighted`.
    */
  def selfSeconds(weighted: Boolean): Map[String, Double] = {
    val childNs = new Array[Long](spans.size)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.durNs)
    inner.foreach { case (id, _, ns) => childNs(id) += ns }
    def w(id: Int): Double = if (weighted) spans(id).weight else 1.0
    val own = spans.map(s => s.layer -> (s.durNs - childNs(s.id)) * w(s.id))
    val fromInner = inner.map { case (id, layer, ns) => layer -> ns * w(id) }
    (own ++ fromInner).groupMapReduce(_._1)(_._2 / 1e9)(_ + _)
  }
}

/** A bank that does nothing: a driver pass over it costs only the event
  * loop and the counter encoding.
  */
object NullBank extends CounterBank {
  override def increment(site: Int, counter: Int): Unit = ()
  override def estimate(counter: Int): Double = 0.0
  override def messages: Long = 0L
}

/** Spark listener totals for the micro-batch layer. Listener events arrive
  * asynchronously; read the totals only after `Drain(sc)`.
  */
final class BatchListener extends SparkListener {
  @volatile var jobNs = 0L
  @volatile var tasks = 0L
  @volatile var executorRunMs = 0L
  @volatile var executorCpuNs = 0L
  @volatile var gcMs = 0L
  @volatile var shuffleWriteBytes = 0L
  @volatile var shuffleReadBytes = 0L
  @volatile var resultBytes = 0L
  private val starts = scala.collection.concurrent.TrieMap.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = starts.put(e.jobId, e.time)

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    starts.remove(e.jobId).foreach(t => jobNs += (e.time - t) * 1000000L)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      executorRunMs += m.executorRunTime
      executorCpuNs += m.executorCpuTime
      gcMs += m.jvmGCTime
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      resultBytes += m.resultSize
    }
  }
}
