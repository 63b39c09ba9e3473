package repro.index

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Dataset, Encoder, SparkSession}
import repro.nlp.Sent
import scala.reflect.ClassTag

/** One fully-annotated token row — the paper's W table plus the POS /
  * parse-label node ids that key into the hierarchy indices.
  */
final case class TokenRow(
    doc: Long, sid: Long, tid: Int,
    word: String, pos: String, label: String, head: Int,
    etype: String, eid: Int,
    lo: Int, hi: Int, depth: Int,
    plId: Int, posId: Int)

/** One entity mention — the paper's E table. */
final case class EntityRow(entity: String, etype: String, doc: Long, sid: Long, lo: Int, hi: Int)

/** A node of a hierarchy index (compressed dataguide, §3). Identified by
  * its unique root path; `id` is deterministic (rank of the sorted path).
  */
final case class HierNode(id: Int, path: String, label: String, depth: Int)

/** KOKO's multi-index over a parsed corpus (§3 + §6.2.1), partitioned by
  * document into cached [[Shard]]s:
  *
  *  - `shards`   — the only cached data: per shard, the sentences as
  *    columns and the W / E / case-folded-word posting lists;
  *  - `plNodes`/`posNodes` — the hierarchy-index dataguides (driver-side;
  *    merging identical nodes removes >99% of tree nodes, so these are
  *    tiny by construction — verified in tests);
  *  - `sentences`, `tokens`, `word` (W(word, x, y, u, v, d, plId, posId))
  *    and `entity` (E(entity, etype, x, u, v)) — uncached views of the
  *    shards, for the baselines, the benches and the tests.
  */
object Indexes {

  final class Built(
      val spark: SparkSession,
      val shards: RDD[Shard],
      val plNodes: Seq[HierNode],
      val posNodes: Seq[HierNode]) {

    private def view[A: Encoder: ClassTag](f: Shard => Iterator[A]): Dataset[A] =
      spark.createDataset(shards.mapPartitions(_.flatMap(f)))

    lazy val sentences: Dataset[Sent] = {
      import spark.implicits._
      view(_.sents)
    }

    lazy val tokens: DataFrame = {
      import spark.implicits._
      view(_.tokenRows).toDF()
    }

    lazy val word: DataFrame =
      tokens.select("word", "doc", "sid", "tid", "lo", "hi", "depth", "plId", "posId")

    lazy val entity: DataFrame = {
      import spark.implicits._
      view(_.entityRows).toDF()
    }

    /** Release the cached shards (between bench scales). */
    def unpersist(): Unit = shards.unpersist()
  }

  private def dataguide(paths: Seq[String]): Seq[HierNode] = {
    // Merging identical nodes ≡ taking the distinct set of root paths; a
    // node's children automatically have distinct labels. Ids are ranks in
    // path order, so they are deterministic across runs.
    val all = paths.flatMap { p =>
      // every prefix of a token's path is a node of the index
      val parts = p.split("/").toList.drop(1)
      (1 to parts.size).map(k => "/" + parts.take(k).mkString("/"))
    }.distinct.sorted
    all.zipWithIndex.map { case (p, i) =>
      val parts = p.split("/").drop(1)
      HierNode(i, p, parts.last, parts.length - 1)
    }
  }

  /** The Closure-Table representation of a dataguide that the paper stores
    * in PostgreSQL: (id, label, depth, aid, alabel, adepth). No lookup reads
    * it (DPLI matches the driver-side dataguide); it is built for the
    * index-size comparison and its oracle test.
    */
  def closureDf(spark: SparkSession, nodes: Seq[HierNode]): DataFrame = {
    import spark.implicits._
    val byPath = nodes.map(n => n.path -> n).toMap
    val rows = nodes.flatMap { n =>
      val parts = n.path.split("/").drop(1)
      (1 to parts.length).map { k =>
        val a = byPath("/" + parts.take(k).mkString("/"))
        (n.id, n.label, n.depth, a.id, a.label, a.depth)
      }
    }
    rows.toDF("id", "label", "depth", "aid", "alabel", "adepth")
  }

  /** Rethrows an input error raised in a task as itself. */
  private def inputChecked[A](job: => A): A =
    try job
    catch { case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] => throw e.getCause }

  /** Build all indices. Every document's sentences go to one partition
    * (keeping the input's partition count), which is built once into a
    * cached [[Shard]]. The shards hold every sentence, so the input is read
    * once and its cache, if the caller made one, is released: the shards
    * are the only copy of the corpus in Spark storage. Throws
    * `IllegalArgumentException` on input the shards cannot hold (see
    * [[Shard.prepare]]).
    */
  def build(spark: SparkSession, sents: Dataset[Sent]): Built = {
    import spark.implicits._
    val parted = sents.repartition(math.max(1, sents.rdd.getNumPartitions), $"doc").rdd

    val paths = inputChecked(parted.mapPartitions { part =>
      val metas = Shard.prepare(part).map(_._2)
      Iterator((metas.flatMap(_.plPath).toSet, metas.flatMap(_.posPath).toSet))
    }.collect())
    val plNodes = dataguide(paths.flatMap(_._1).distinct.toSeq)
    val posNodes = dataguide(paths.flatMap(_._2).distinct.toSeq)
    val bPl = spark.sparkContext.broadcast(plNodes.map(n => n.path -> n.id).toMap)
    val bPos = spark.sparkContext.broadcast(posNodes.map(n => n.path -> n.id).toMap)

    val shards = parted
      .mapPartitions(part => Iterator(Shard.build(Shard.prepare(part), bPl.value, bPos.value)))
      .setName("koko-shards")
      .cache()
    inputChecked(shards.count())
    sents.unpersist(blocking = true)
    new Built(spark, shards, plNodes, posNodes)
  }
}
