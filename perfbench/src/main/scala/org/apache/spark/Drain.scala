package org.apache.spark

/** Waits until every queued listener event has been delivered, so listener
  * totals read afterwards cover all finished jobs. The listener bus is
  * package-private to Spark, hence this package.
  */
object Drain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
