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
  * its unique root path; `id` is deterministic ([[Shard.dataguide]]).
  */
final case class HierNode(id: Int, path: String, label: String, depth: Int)

/** KOKO's multi-index over a parsed corpus (§3 + §6.2.1), partitioned by
  * document into cached [[Shard]]s:
  *
  *  - `shards`   — the only cached data: per shard, the sentences as
  *    columns, its PL/POS dataguides and the W (by word, `plId` and
  *    `posId`) and E (by entity type) posting lists;
  *  - `plNodes`/`posNodes` — the union of the shards' dataguides (tiny by
  *    construction — verified in tests), whose ids the W view reports;
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
      val (plIds, posIds) = (plNodes.map(n => n.path -> n.id).toMap, posNodes.map(n => n.path -> n.id).toMap)
      view(_.tokenRows(plIds, posIds)).toDF()
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

  /** The Closure-Table representation of a dataguide that the paper stores
    * in PostgreSQL: (id, label, depth, aid, alabel, adepth). No lookup reads
    * it (DPLI matches each shard's own dataguide); it is built for the
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

  /** Build all indices in one job. Every document's sentences go to one
    * partition (keeping the input's partition count), which is built once
    * into a cached [[Shard]]; collecting the shards' dataguide paths fills
    * the cache. The shards hold every sentence, so the input's cache, if
    * the caller made one, is released. Throws `IllegalArgumentException` on
    * input the shards cannot hold (see [[Shard.build]]).
    */
  def build(spark: SparkSession, sents: Dataset[Sent]): Built = {
    import spark.implicits._
    val shards = sents.repartition(math.max(1, sents.rdd.getNumPartitions), $"doc").rdd
      .mapPartitions(part => Iterator(Shard.build(part)))
      .setName("koko-shards")
      .cache()
    val paths = inputChecked(shards.map(sh => (sh.plNodes.map(_.path), sh.posNodes.map(_.path))).collect())
    sents.unpersist(blocking = true)
    new Built(spark, shards, Shard.dataguide(paths.iterator.flatMap(_._1)),
      Shard.dataguide(paths.iterator.flatMap(_._2)))
  }
}
