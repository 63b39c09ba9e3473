package repro.index

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.nlp.{Sent, TreeOps}

/** One fully-annotated token row — the flattened join of the parsed text
  * with all per-token index metadata (the paper's W table plus the POS /
  * parse-label node ids that key into the hierarchy indices).
  */
final case class TokenRow(
    doc: Long, sid: Long, tid: Int,
    word: String, pos: String, label: String, head: Int,
    etype: String, eid: Int,
    lo: Int, hi: Int, depth: Int,
    plPath: String, posPath: String)

/** A node of a hierarchy index (compressed dataguide, §3). Identified by
  * its unique root path; `id` is deterministic (rank of the sorted path).
  */
final case class HierNode(id: Int, path: String, label: String, depth: Int)

/** KOKO's multi-index over a parsed corpus (§3 + §6.2.1):
  *
  *  - `word`     — W(word, x, y, u, v, d, plId, posId)
  *  - `entity`   — E(entity, etype, x, u, v)
  *  - `plNodes`/`posNodes` — the hierarchy-index dataguides (driver-side;
  *    merging identical nodes removes >99% of tree nodes, so these are
  *    tiny by construction — verified in tests)
  *  - `sentences`— the parsed-text store (LoadArticle reads from here)
  */
object Indexes {

  final case class Built(
      sentences: Dataset[Sent],
      tokens: DataFrame,
      word: DataFrame,
      entity: DataFrame,
      plNodes: Seq[HierNode],
      posNodes: Seq[HierNode]) {

    def spark: SparkSession = tokens.sparkSession

    /** Release cached data (between bench scales). */
    def unpersist(): Unit = {
      sentences.unpersist(); tokens.unpersist(); word.unpersist(); entity.unpersist()
    }
  }

  /** Flatten sentences to annotated token rows (pure per sentence). */
  def tokenRows(s: Sent): Seq[TokenRow] = {
    val m = TreeOps.meta(s.toks)
    s.toks.map { t =>
      TokenRow(s.doc, s.sid, t.tid, t.word, t.pos, t.label, t.head, t.etype,
        t.eid, m.lo(t.tid), m.hi(t.tid), m.depth(t.tid),
        m.plPath(t.tid), m.posPath(t.tid))
    }
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

  /** Build all indices. The corpus is materialized (cached) because index
    * construction and query evaluation both scan it.
    */
  def build(spark: SparkSession, sents: Dataset[Sent]): Built = {
    import spark.implicits._
    val sentences = sents.cache()
    val withPaths = sentences.flatMap(tokenRows _).cache()

    val plPaths = withPaths.select($"plPath").distinct().as[String].collect().toSeq
    val posPaths = withPaths.select($"posPath").distinct().as[String].collect().toSeq
    val plNodes = dataguide(plPaths)
    val posNodes = dataguide(posPaths)
    val plIdMap = plNodes.map(n => n.path -> n.id).toMap
    val posIdMap = posNodes.map(n => n.path -> n.id).toMap
    val bPl = spark.sparkContext.broadcast(plIdMap)
    val bPos = spark.sparkContext.broadcast(posIdMap)

    val tokens = withPaths
      .map { r =>
        (r.doc, r.sid, r.tid, r.word, r.pos, r.label, r.head, r.etype, r.eid,
         r.lo, r.hi, r.depth, bPl.value(r.plPath), bPos.value(r.posPath))
      }
      .toDF("doc", "sid", "tid", "word", "pos", "label", "head", "etype",
        "eid", "lo", "hi", "depth", "plId", "posId")
      .cache()
    // Materialize the token table so the flattened rows it was built from
    // can be freed: `Built.unpersist()` then frees everything cached here.
    tokens.count()
    withPaths.unpersist()

    val word = tokens.select("word", "doc", "sid", "tid", "lo", "hi", "depth", "plId", "posId")

    val entity = tokens
      .filter($"eid" >= 0)
      .groupBy($"doc", $"sid", $"eid", $"etype")
      .agg(
        min($"tid").as("lo"),
        max($"tid").as("hi"),
        array_join(transform(array_sort(collect_list(struct($"tid", $"word"))),
          x => x.getField("word")), " ").as("entity"))
      .select("entity", "etype", "doc", "sid", "lo", "hi")
      .cache()

    Built(sentences, tokens, word, entity, plNodes, posNodes)
  }
}
