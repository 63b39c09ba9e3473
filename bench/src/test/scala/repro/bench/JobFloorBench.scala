package repro.bench

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.KokoEngine
import repro.index.{Indexes, Shard}
import repro.nlp.CorpusGen

/** The fixed driver cost of one query, piece by piece: a KOKO query
  * against the no-op Spark jobs and the broadcast it could be made of.
  *
  * In one warm JVM on the wiki corpus (2K docs by default) it prints the
  * median and quartiles of each probe over 300 rounds (after 100 untimed
  * ones), the probes taking turns within a round so drift reaches them
  * alike:
  *  - `KokoEngine.run` on the Title query;
  *  - a no-op lambda `mapPartitions` + `collect` over the shards (Spark
  *    cleans the lambda of each of its three calls);
  *  - a no-op named-function `runJob` over the shards (nothing to clean);
  *  - the same `runJob` on a one-element RDD (no index lineage in the task);
  *  - `broadcast` + `destroy` of a small value.
  * It asserts nothing about time. Run it with the benchmark's master:
  * `SPARK_MASTER='local[1]' sbt "bench/testOnly repro.bench.JobFloorBench"`.
  */
class JobFloorBench extends AnyFunSuite with SparkSpec {
  import JobFloorBench._

  test("fixed cost per query: KOKO query vs no-op jobs and a broadcast") {
    val nDocs = sys.env.getOrElse("JF_DOCS", "2000").toLong
    val (warmup, reps) = (100, 300)
    val sc = spark.sparkContext
    val built = Indexes.build(spark, CorpusGen.corpus(spark, "wiki", nDocs, 42))
    val one = sc.parallelize(Seq(0), 1).cache()
    one.count()

    def noOpJob[T](rdd: RDD[T]): Unit = sc.runJob(rdd, new NoOp[T], rdd.partitions.indices, (_: Int, _: Int) => ())
    val probes: Seq[(String, () => Unit)] = Seq(
      "KokoEngine.run (Title)" -> (() => KokoEngine.run(spark, Table2Harness.TitleQ, built)),
      "no-op lambda mapPartitions+collect" -> (() => built.shards.mapPartitions(emptyPart).collect()),
      "no-op named-function runJob, shards" -> (() => noOpJob(built.shards)),
      "no-op named-function runJob, 1 element" -> (() => noOpJob(one)),
      "broadcast + destroy" -> (() => sc.broadcast(Table2Harness.TitleQ).destroy()))

    val ms = Array.fill(probes.size)(Array.newBuilder[Double])
    for (rep <- 0 until warmup + reps; (p, k) <- probes.zipWithIndex) {
      val t0 = System.nanoTime()
      p._2()
      if (rep >= warmup) ms(k) += (System.nanoTime() - t0) / 1e6
    }
    println(s"JobFloorBench: $nDocs wiki docs, ${built.shards.getNumPartitions} shards, master ${sc.master}, " +
      s"$warmup warm-up + $reps timed rounds (ms)")
    println(f"${"probe"}%-40s ${"q1"}%8s ${"median"}%8s ${"q3"}%8s")
    probes.zip(ms).foreach { case ((name, _), b) =>
      val xs = b.result().sorted
      def q(f: Double): Double = xs(((xs.length - 1) * f).round.toInt)
      println(f"$name%-40s ${q(0.25)}%8.2f ${q(0.5)}%8.2f ${q(0.75)}%8.2f")
    }
    one.unpersist()
    built.unpersist()
  }
}

object JobFloorBench {
  private val emptyPart: Iterator[Shard] => Iterator[Int] = _ => Iterator.empty

  /** A task that reads nothing: a named class, which Spark does not clean. */
  private final class NoOp[T] extends ((TaskContext, Iterator[T]) => Int) with Serializable {
    def apply(ctx: TaskContext, it: Iterator[T]): Int = 0
  }
}
