package repro.perf

import org.apache.spark.SparkContext
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is -1 for a root span; `query`
  * is -1 outside the query loop. `work` is the Spark work the call ran.
  */
final case class Span(
    id: Int,
    parent: Int,
    name: String,
    query: Int,
    startNs: Long,
    endNs: Long,
    work: SparkWork) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around the benchmark's calls into the program. Spans are
  * held in memory until the run ends. Each span runs under its own Spark
  * job group, so the listener attributes Spark work to the innermost span.
  * Single-threaded: spans nest on the calling thread.
  */
final class Tracer(sc: SparkContext, counters: SparkCounters) {
  private val done = ArrayBuffer[Span]()
  private var open = List.empty[Int]
  private var nextId = 0

  private def group(id: Int): String = s"span-$id"

  def span[A](name: String, query: Int)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    sc.setJobGroup(group(id), name, interruptOnCancel = false)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      open.headOption match {
        case Some(p) => sc.setJobGroup(group(p), name, interruptOnCancel = false)
        case None => sc.clearJobGroup()
      }
      done += Span(id, parent, name, query, t0, t1, counters.take(sc, group(id)))
    }
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)

  /** The most recent finished span with this name. */
  def last(name: String): Span = done.findLast(_.name == name).get
}
