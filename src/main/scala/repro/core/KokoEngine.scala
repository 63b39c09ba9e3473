package repro.core

import java.util.Arrays
import org.apache.spark.TaskContext
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.index.{Indexes, Shard}

/** The KOKO engine: the pipeline of Figure 2 on Spark, one job per query.
  *
  *  1. Normalize   — parse + §4.1 normalization, decomposing the query's
  *                   paths into DPLI's pruning items and each node
  *                   variable's own path ([[Dpli.plan]]), and compiling
  *                   the satisfying/excluding clauses into an
  *                   [[Aggregator.SatPlan]], before the job;
  *
  * then one Spark job with one task per document-partitioned [[Shard]]
  * (no shuffle), the query shipped inside the task (`QueryTask`):
  *
  *  2. DPLI        — §4.2 dataguide matching and posting-list merges
  *                   in the shard ([[Dpli.bind]]): its candidate
  *                   sentences, and in them each node variable's
  *                   candidate tokens (its bindings);
  *  3. LoadArticle — the candidate sentences as [[repro.nlp.Sent]]s, and
  *                   the other sentences of the documents step 5 scores;
  *  4. GSP+extract — per-sentence skip plan + extract clause, the query's
  *                   compiled evaluator validating only DPLI's bindings
  *                   of each node variable
  *                   ([[SentenceEvaluator.Compiled.extract]]);
  *  5. Aggregate   — satisfying/excluding per document that has tuples
  *                   ([[Aggregator.aggregate]] with the compiled plan)
  *                   over its shard-local sentences.
  *
  * [[Timings]] mirror Table 2's breakdown (DESIGN.md §5).
  */
object KokoEngine {

  /** Per-stage times in seconds. `normalize` is driver wall time (step 1
    * up to the plan); the other stages, `dpli` included, are busy time
    * measured inside the tasks and summed over them. `extract` excludes the
    * GSP time reported in `gsp`; LoadArticle (`load`) includes loading the
    * sentences of scored documents that were not candidates; `satisfying`
    * includes compiling the plan before the job.
    */
  final case class Timings(
      normalize: Double,
      dpli: Double,
      load: Double,
      gsp: Double,
      extract: Double,
      satisfying: Double) {
    def total: Double = normalize + dpli + load + gsp + extract + satisfying
  }

  type OutRow = Aggregator.OutRow

  /** A query's rows, timings and stage counts: candidate sentences,
    * sentences LoadArticle built (the candidates plus the other sentences
    * of the documents aggregated), extract tuples, documents aggregated
    * (those with tuples, when the query has a satisfying or excluding
    * clause), and the distinct (document, variable, value) triples the
    * satisfying clauses scored.
    */
  final case class Result(
      rows: Seq[OutRow],
      timings: Timings,
      nCandidateSents: Long,
      nSentsLoaded: Long,
      nCandidateTuples: Long,
      nDocsAggregated: Long,
      nValuesScored: Long)

  /** A shard's output rows as columns, its counts and its busy nanoseconds
    * per stage. Row `i` is `(doc(i), sid(i))` with value `vals(k)(i)` for
    * the query's `k`-th needed variable and score `scores(k)(i)` for its
    * `k`-th satisfying clause: flat arrays serialize smaller and faster
    * than one `OutRow` of `Map`s per row.
    */
  private final case class ShardOut(
      doc: Array[Long], sid: Array[Long], vals: Array[Array[String]], scores: Array[Array[Double]],
      nCand: Long, nLoaded: Long, nTuples: Long, nDocs: Long, nValues: Long,
      dpli: Long, load: Long, gsp: Long, extract: Long, satisfying: Long) {

    def rows(valVars: Seq[String], scoreVars: Seq[String]): Seq[OutRow] = doc.indices.map { i =>
      Aggregator.OutRow(doc(i), sid(i),
        valVars.indices.map(k => valVars(k) -> vals(k)(i)).toMap,
        scoreVars.indices.map(k => scoreVars(k) -> scores(k)(i)).toMap)
    }
  }

  private def sidFrame(built: Indexes.Built)(f: Shard => Array[Int]): DataFrame = {
    import built.spark.implicits._
    built.shards.mapPartitions(_.flatMap(sh => f(sh).iterator.map(sh.sid(_)))).toDF("sid")
  }

  /** Per-item pruning DataFrames (single `sid` column, distinct):
    * dominant node paths, span-atom paths/words, and entity mentions for
    * free entity variables (see [[Dpli.items]]).
    */
  def pruningItems(built: Indexes.Built, nq: Normalizer.NormQuery): Seq[DataFrame] =
    Dpli.items(nq).map(item => sidFrame(built)(item.sentences))

  /** Candidate sentence ids after DPLI, computed by one job over the
    * shards; None means "no pruning possible" (empty extract clause — all
    * sentences are considered, §4.3).
    */
  def candidateSids(built: Indexes.Built, nq: Normalizer.NormQuery): Option[DataFrame] = {
    val items = Dpli.items(nq)
    if (items.isEmpty) None else Some(sidFrame(built)(sh => Dpli.candidates(sh, items).get))
  }

  /** Steps 2–5 on one shard. */
  private def runShard(nq: Normalizer.NormQuery, dpli: Dpli.Plan, plan: Aggregator.SatPlan, sh: Shard): ShardOut = {
    var t = System.nanoTime()
    def lap(): Long = { val t0 = t; t = System.nanoTime(); t - t0 }

    val bound = Dpli.bind(sh, dpli)
    val cand = bound.fold(Array.range(0, sh.nSents))(_.sents)
    val tokens = bound.map(_.tokenIds(sh))
    val dpliNs = lap()
    val loaded = cand.map(sh.sent)
    var nLoaded = loaded.length.toLong
    var loadNs = lap()
    var gspNs = 0L
    val evaluator = nq.evaluator
    val tuples = loaded.toSeq.flatMap(s => evaluator.extract(s, tokens.map(_.next()), gspNs += _))
    val extractNs = lap() - gspNs

    var satNs = 0L
    var nDocs = 0L
    var nValues = 0L
    val rows =
      if (plan.isEmpty) tuples.map(c => Aggregator.OutRow(c.doc, c.sid, c.vals, Map.empty))
      else {
        val lex = new Aggregator.Lexicon(plan)
        tuples.groupBy(_.doc).toSeq.flatMap { case (d, ts) =>
          lap()
          // The candidates are loaded already; load only the rest.
          val docSents = sh.sentencesOfDoc(d).map { s =>
            val k = Arrays.binarySearch(cand, s)
            if (k >= 0) loaded(k) else { nLoaded += 1; sh.sent(s) }
          }
          loadNs += lap()
          val out = Aggregator.aggregate(lex, ts, docSents)
          satNs += lap()
          nDocs += 1
          nValues += out.nValues
          out.rows
        }
      }
    val out = rows.toArray
    ShardOut(out.map(_.doc), out.map(_.sid),
      nq.neededVars.map(v => out.map(_.vals(v))).toArray,
      nq.satisfying.map(sat => out.map(_.scores(sat.v))).toArray,
      cand.length, nLoaded, tuples.size, nDocs, nValues, dpliNs, loadNs, gspNs, extractNs, satNs)
  }

  /** The query's one job: steps 2–5 on each shard of a partition. A named
    * class, not a lambda, so Spark's closure cleaner has no class file to
    * parse on every query; the query's parts are its fields and travel in
    * the stage's task binary, which Spark broadcasts once per stage.
    */
  private final class QueryTask(nq: Normalizer.NormQuery, dpli: Dpli.Plan, plan: Aggregator.SatPlan)
      extends ((TaskContext, Iterator[Shard]) => Array[ShardOut]) with Serializable {
    def apply(ctx: TaskContext, shards: Iterator[Shard]): Array[ShardOut] =
      shards.map(runShard(nq, dpli, plan, _)).toArray
  }

  def run(
      spark: SparkSession,
      src: String,
      built: Indexes.Built): Result = {
    val start = System.nanoTime()
    run(spark, KokoParser.parse(src), built, start)
  }

  /** [[run]] on a parsed query, such as a generated one that has no text
    * form; `Timings.normalize` counts from `start`.
    */
  private[core] def run(spark: SparkSession, q: Ast.KokoQuery, built: Indexes.Built, start: Long): Result = {
    val nq = Normalizer.normalize(q)
    val dpli = Dpli.plan(nq)
    val tNorm = (System.nanoTime() - start) / 1e9
    val t0 = System.nanoTime()
    val plan = Aggregator.SatPlan(nq)
    val tPlan = (System.nanoTime() - t0) / 1e9

    val parts = new Array[Array[ShardOut]](built.shards.getNumPartitions)
    spark.sparkContext.runJob(built.shards, new QueryTask(nq, dpli, plan), parts.indices,
      (i: Int, out: Array[ShardOut]) => parts(i) = out)
    val outs = parts.flatten

    def secs(f: ShardOut => Long): Double = outs.iterator.map(f).sum / 1e9
    def count(f: ShardOut => Long): Long = outs.iterator.map(f).sum
    val scoreVars = nq.satisfying.map(_.v)
    Result(
      outs.toSeq.flatMap(_.rows(nq.neededVars, scoreVars)),
      Timings(tNorm, secs(_.dpli), secs(_.load), secs(_.gsp), secs(_.extract), tPlan + secs(_.satisfying)),
      count(_.nCand), count(_.nLoaded), count(_.nTuples), count(_.nDocs), count(_.nValues))
  }
}
