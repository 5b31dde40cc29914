package org.apache.spark

/** Waits until Spark's listener bus has delivered every posted event, so the
  * benchmark's counters are complete before they are read. The bus is
  * package-private to Spark, hence this file's package.
  */
object PerfBenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
