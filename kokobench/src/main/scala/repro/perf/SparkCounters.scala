package repro.perf

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark work done under one job group. */
final case class SparkWork(
    jobs: Int,
    stages: Int,
    tasks: Long,
    shuffleWriteBytes: Long,
    shuffleReadBytes: Long,
    executorCpuNs: Long) {
  def shuffleMb: Double = shuffleWriteBytes / 1e6
}

object SparkWork {
  val zero: SparkWork = SparkWork(0, 0, 0, 0, 0, 0)
}

/** Counts jobs, completed stages, tasks, shuffle bytes and executor CPU
  * time per job group (`SparkContext.setJobGroup`). Skipped stages never
  * complete and are not counted.
  */
final class SparkCounters extends SparkListener {
  private val stageGroup = mutable.Map[Int, String]()
  private val work = mutable.Map[String, SparkWork]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).foreach { g =>
      val w = work.getOrElse(g, SparkWork.zero)
      work(g) = w.copy(jobs = w.jobs + 1)
      e.stageIds.foreach(stageGroup(_) = g)
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val info = e.stageInfo
    stageGroup.remove(info.stageId).foreach { g =>
      val w = work.getOrElse(g, SparkWork.zero)
      val m = Option(info.taskMetrics)
      work(g) = w.copy(
        stages = w.stages + 1,
        tasks = w.tasks + info.numTasks,
        shuffleWriteBytes = w.shuffleWriteBytes + m.map(_.shuffleWriteMetrics.bytesWritten).getOrElse(0L),
        shuffleReadBytes = w.shuffleReadBytes + m.map(_.shuffleReadMetrics.totalBytesRead).getOrElse(0L),
        executorCpuNs = w.executorCpuNs + m.map(_.executorCpuTime).getOrElse(0L))
    }
  }

  /** All work recorded for `group` once the bus has drained; forgets it. */
  def take(sc: SparkContext, group: String): SparkWork = {
    ListenerBusDrain(sc)
    synchronized(work.remove(group).getOrElse(SparkWork.zero))
  }
}
