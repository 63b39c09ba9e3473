package org.apache.spark

/** Waits until the listener bus has delivered every posted event.
  *
  * `SparkContext.listenerBus` is package-private; listener events arrive
  * asynchronously, so counters read without this drain drift between runs.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
