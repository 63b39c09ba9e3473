package repro.core

import repro.nlp.Sent

/** Index-free reference implementation of KOKO evaluation.
  *
  * Runs the shared evaluation core ([[SentenceEvaluator.extract]], then
  * [[Aggregator.aggregate]] per document, with the query's
  * [[Aggregator.SatPlan]] compiled once per run and one
  * [[Aggregator.Lexicon]]) over an in-memory corpus with no index
  * pruning. It is (a) the correctness oracle for [[KokoEngine]]'s
  * DPLI pruning and Spark plan in the test suite, and (b) the ground truth
  * for the index *effectiveness* metric (§6.2.2): the set of sentences
  * that truly contain bindings for all variables of a query.
  */
object NaiveKoko {
  import Normalizer.NormQuery

  type OutRow = Aggregator.OutRow

  /** Sentences where the extract clause has at least one full binding. */
  def matchingSids(nq: NormQuery, sents: Seq[Sent]): Set[Long] =
    sents.filter(s => SentenceEvaluator.evaluate(nq, s, useGsp = true).nonEmpty)
      .map(_.sid).toSet

  /** Full evaluation (extract + satisfying + excluding), document by document. */
  def run(nq: NormQuery, sents: Seq[Sent]): Seq[OutRow] = {
    val lex = new Aggregator.Lexicon(Aggregator.SatPlan(nq))
    sents.groupBy(_.doc).toSeq.sortBy(_._1).flatMap { case (_, ds) =>
      val docSents = ds.sortBy(_.sid)
      Aggregator.aggregate(lex, docSents.flatMap(SentenceEvaluator.extract(nq, _)), docSents).rows
    }
  }

  /** Parse + normalize + run, for tests. */
  def runQuery(src: String, sents: Seq[Sent]): Seq[OutRow] =
    run(Normalizer.normalize(KokoParser.parse(src)), sents)
}
