package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.index.Indexes
import repro.nlp.Sent

/** The KOKO engine: the 4-stage pipeline of Figure 2 on Spark.
  *
  *  1. Normalize   — parse + §4.1 normalization (driver);
  *  2. DPLI        — §4.2 index lookups and posting-list joins
  *                   (DataFrame joins over the multi-index), producing the
  *                   candidate-sentence set;
  *  3. LoadArticle — join candidates back to the parsed-sentence store;
  *  4. GSP+extract — per-sentence skip-plan + extract-clause evaluation as
  *                   a `flatMap` scan with the query broadcast;
  *  5. Aggregate   — satisfying/excluding evaluation per document via
  *                   `cogroup` with the document's sentences.
  *
  * Per-stage wall-clock timings mirror Table 2's breakdown; GSP time is
  * accumulated across executors with a Spark accumulator (DESIGN.md §5).
  */
object KokoEngine {

  final case class Timings(
      normalize: Double,
      dpli: Double,
      load: Double,
      gsp: Double,
      extract: Double,
      satisfying: Double) {
    def total: Double = normalize + dpli + load + extract + satisfying
  }

  type OutRow = Aggregator.OutRow

  final case class Result(
      rows: Seq[OutRow],
      timings: Timings,
      nCandidateSents: Long,
      nCandidateTuples: Long)

  /** Per-variable pruning DataFrames (single `sid` column, distinct):
    * dominant node paths via [[Dpli]], span-atom paths/words, and entity
    * mentions for free entity variables.
    */
  def pruningItems(built: Indexes.Built, nq: Normalizer.NormQuery): Seq[DataFrame] = {
    val nodePaths = nq.nodeDefs.map(d => d.name -> d.path)
    val byName = nodePaths.toMap
    val dominant = PathDecomposer.dominantOf(nodePaths).values.toSet.toSeq.sorted
    val fromNodes = dominant.map { n =>
      Dpli.lookup(built, PathDecomposer.decompose(byName(n))).select("sid").distinct()
    }
    val fromAtoms = nq.spanDefs.flatMap(_.atoms).flatMap {
      case Ast.APath(p) if p.isAbsolute =>
        Some(Dpli.lookup(built, PathDecomposer.decompose(p)).select("sid").distinct())
      case Ast.AWords(ws) =>
        ws.find(_.exists(_.isLetterOrDigit)).map(w =>
          built.word.filter(lower(col("word")) === w.toLowerCase).select("sid").distinct())
      case _ => None
    }
    val fromEnts = nq.freeEnts.map { o =>
      val e = if (o.typ == "Entity") built.entity else built.entity.filter(col("etype") === o.typ)
      e.select("sid").distinct()
    }
    fromNodes ++ fromAtoms ++ fromEnts
  }

  /** Candidate sentence ids after DPLI; None means "no pruning possible"
    * (empty extract clause — all sentences are considered, §4.3).
    */
  def candidateSids(built: Indexes.Built, nq: Normalizer.NormQuery): Option[DataFrame] = {
    val items = pruningItems(built, nq)
    if (items.isEmpty) None else Some(items.reduce(_.intersect(_)))
  }

  def run(
      spark: SparkSession,
      src: String,
      built: Indexes.Built): Result = {
    import spark.implicits._

    var t0 = System.nanoTime()
    val nq = Normalizer.normalize(KokoParser.parse(src))
    val tNorm = (System.nanoTime() - t0) / 1e9

    // ---- DPLI
    t0 = System.nanoTime()
    val candSids = candidateSids(built, nq).map(_.cache())
    val nCand = candSids.map(_.count()).getOrElse(built.sentences.count())
    val tDpli = (System.nanoTime() - t0) / 1e9

    // ---- LoadArticle
    t0 = System.nanoTime()
    val loaded = candSids match {
      case Some(df) => built.sentences.join(df, "sid").select("doc", "sid", "toks").as[Sent]
      case None => built.sentences
    }
    val loadedC = loaded.cache()
    loadedC.count()
    val tLoad = (System.nanoTime() - t0) / 1e9

    // ---- GSP + extract
    t0 = System.nanoTime()
    val gspAcc = spark.sparkContext.longAccumulator("gspNs")
    val bq = spark.sparkContext.broadcast(nq)
    val cands = loadedC
      .flatMap(s => SentenceEvaluator.extract(bq.value, s, ns => gspAcc.add(ns)))
      .cache()
    val nTuples = cands.count()
    val tGsp = gspAcc.value / 1e9
    val tExtract = (System.nanoTime() - t0) / 1e9 - tGsp

    // ---- Aggregate (satisfying + excluding)
    t0 = System.nanoTime()
    val rows: Seq[OutRow] =
      if (nq.satisfying.isEmpty && nq.excluding.isEmpty)
        cands.collect().toSeq.map(c => Aggregator.OutRow(c.doc, c.sid, c.vals, Map.empty))
      else
        cands.groupByKey(_.doc)
          .cogroup(built.sentences.groupByKey(_.doc)) { (_, cit, sit) =>
            val cs = cit.toSeq
            if (cs.isEmpty) Iterator.empty
            else Aggregator.aggregate(bq.value, cs, sit.toSeq.sortBy(_.sid)).iterator
          }
          .collect().toSeq
    val tSat = (System.nanoTime() - t0) / 1e9

    cands.unpersist()
    loadedC.unpersist()
    candSids.foreach(_.unpersist())
    Result(rows, Timings(tNorm, tDpli, tLoad, tGsp, tExtract, tSat), nCand, nTuples)
  }
}
