package org.apache.spark

/** Waits until the listener bus has delivered every posted event.
  * `SparkContext.listenerBus` is package-private, and listener events
  * arrive asynchronously: counts read without this drain may miss events.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
