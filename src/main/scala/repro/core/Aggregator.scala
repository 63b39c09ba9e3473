package repro.core

import java.util.regex.Pattern
import repro.nlp.{CaseFold, ClauseDecomposer, Embeddings, Sent, TreeOps, Vocab}
import scala.collection.mutable

/** Evidence aggregation for satisfying / excluding clauses (§4.4.1).
  *
  * The score of a value `e` is `Σ wᵢ·mᵢ(e)` over the clause's conditions.
  * Boolean conditions contribute 0/1 (existence over the document);
  * `near` scores `1/(1+distance)` (max over the document); descriptor
  * conditions follow the paper's formula: per sentence,
  * `conf = maxᵢ Σⱼ match(dᵢ, cⱼ)` with `match(dᵢ, cⱼ) = kᵢ·lⱼ` when the
  * expanded descriptor's word sequence occurs in order (gaps allowed) in
  * canonical clause `cⱼ`; the document score is the sum over sentences.
  *
  * Scoring is split in two. A [[SatPlan]] compiles the query's conditions
  * once: tokenized and case-folded patterns, compiled regexes, dictionary
  * sets and the descriptor expansions (capped at [[Embeddings.TopK]] per
  * query, §5). [[aggregate]] then scores one document's values against
  * sentence views built once per document: each sentence's folded words
  * and their set, and its clauses. Words compare by [[CaseFold]], which is
  * `equalsIgnoreCase`. A sentence that lacks the value, or a descriptor
  * variant with a word the sentence lacks, contributes 0 and is skipped;
  * every term is ≥ 0, so the sums keep their order and their bits.
  * The engine and [[NaiveKoko]] both call [[aggregate]].
  */
object Aggregator {
  import Ast._
  import Normalizer.NormQuery
  import SentenceEvaluator.Cand

  /** One output row of a KOKO query: an extract tuple plus the scores of
    * its satisfying clauses, keyed by variable.
    */
  final case class OutRow(
      doc: Long,
      sid: Long,
      vals: Map[String, String],
      scores: Map[String, Double])

  /** Start indices of the contiguous occurrences of folded `needle` in
    * folded `hay`.
    */
  private def occurrencesIn(needle: Array[String], hay: Array[String]): Array[Int] =
    if (needle.isEmpty) Array.emptyIntArray
    else (0 to hay.length - needle.length).filter(i => matchesAt(needle, i, hay)).toArray

  private def matchesAt(needle: Array[String], st: Int, hay: Array[String]): Boolean = {
    var k = 0
    while (k < needle.length && hay(st + k) == needle(k)) k += 1
    k == needle.length
  }

  /** In-order, gapped containment of folded `needle` in folded `hay`. */
  private def inOrder(needle: Array[String], hay: Array[String]): Boolean = {
    var h = 0
    needle.forall { w =>
      while (h < hay.length && hay(h) != w) h += 1
      h += 1
      h <= hay.length
    }
  }

  private def folded(words: Seq[String]): Array[String] = words.iterator.map(CaseFold(_)).toArray

  /** Occurrence start indices of a token sequence in a sentence
    * (case-insensitive, contiguous).
    */
  def occurrences(words: Seq[String], s: Sent): Seq[Int] =
    occurrencesIn(folded(words), folded(s.toks.map(_.word))).toSeq

  /** In-order, gapped containment of `needle` in `hay`. */
  def occursInOrder(needle: Seq[String], hay: Seq[String]): Boolean = inOrder(folded(needle), folded(hay))

  // ------------------------------------------------------- document views

  /** One sentence as the conditions read it, built once per document. */
  private final class SentView(s: Sent) {
    val words: Array[String] = folded(s.toks.map(_.word))
    private val wordSet: Set[String] = words.toSet
    def hasAll(ws: Array[String]): Boolean = ws.forall(wordSet.contains)
    lazy val clauses: Seq[ClauseDecomposer.Clause] = ClauseDecomposer.clauses(s, TreeOps.meta(s.toks))
  }

  /** A document's sentences in `sid` order, each viewed on first use. */
  private final class DocView(sents: IndexedSeq[Sent]) {
    private val views = new Array[SentView](sents.size)
    def size: Int = sents.size
    def apply(i: Int): SentView = {
      if (views(i) == null) views(i) = new SentView(sents(i))
      views(i)
    }
  }

  /** A value of one document: its tokens, and their occurrences in each
    * sentence, found on first use.
    */
  private final class ValueView(val text: String, doc: DocView) {
    val words: IndexedSeq[String] = KokoParser.textTokens(text).toIndexedSeq
    val folded: Array[String] = Aggregator.folded(words)
    private val occs = new Array[Array[Int]](doc.size)
    def occurrences(i: Int): Array[Int] = {
      if (occs(i) == null) {
        val sv = doc(i)
        occs(i) = if (sv.hasAll(folded)) occurrencesIn(folded, sv.words) else Array.emptyIntArray
      }
      occs(i)
    }
  }

  // ------------------------------------------------------------ the plan

  /** One condition, compiled once per query; `score` is its confidence
    * mᵢ(e) for one value over the document.
    */
  private sealed trait Cond extends Serializable {
    def weight: Double
    def score(v: ValueView, doc: DocView): Double
  }

  private final case class Contains(weight: Double, words: IndexedSeq[String]) extends Cond {
    def score(v: ValueView, doc: DocView): Double = {
      val hay = v.words
      val hit = words.nonEmpty && (0 to hay.size - words.size).exists(i =>
        words.indices.forall(k => hay(i + k) == words(k)))
      if (hit) 1.0 else 0.0
    }
  }

  private final case class Mentions(weight: Double, s: String) extends Cond {
    def score(v: ValueView, doc: DocView): Double = if (v.text.contains(s)) 1.0 else 0.0
  }

  private final case class Matches(weight: Double, re: Pattern) extends Cond {
    def score(v: ValueView, doc: DocView): Double = if (re.matcher(v.text).matches()) 1.0 else 0.0
  }

  private final case class InDict(weight: Double, dict: Set[String]) extends Cond {
    def score(v: ValueView, doc: DocView): Double = if (dict.contains(v.text.toLowerCase)) 1.0 else 0.0
  }

  private final case class Similar(weight: Double, word: String) extends Cond {
    def score(v: ValueView, doc: DocView): Double =
      v.words.map(Embeddings.sim(_, word)).maxOption.getOrElse(0.0)
  }

  private final case class Adjacent(weight: Double, pat: Array[String], before: Boolean) extends Cond {
    def score(v: ValueView, doc: DocView): Double = {
      val hit = (0 until doc.size).exists { i =>
        val words = doc(i).words
        v.occurrences(i).exists { o =>
          val st = if (before) o - pat.length else o + v.folded.length
          st >= 0 && st + pat.length <= words.length && matchesAt(pat, st, words)
        }
      }
      if (hit) 1.0 else 0.0
    }
  }

  private final case class Near(weight: Double, pat: Array[String]) extends Cond {
    def score(v: ValueView, doc: DocView): Double = {
      val n = v.folded.length
      var best = 0.0
      (0 until doc.size).foreach { i =>
        val vs = v.occurrences(i)
        if (vs.nonEmpty) {
          val words = doc(i).words
          occurrencesIn(pat, words).foreach { p =>
            vs.foreach { o =>
              val d =
                if (p >= o + n) p - (o + n)
                else if (o >= p + pat.length) o - (p + pat.length)
                else 0
              best = math.max(best, 1.0 / (1 + d))
            }
          }
        }
      }
      best
    }
  }

  /** `x [[d]]` / `[[d]] x`: `expansions` are the phrase's folded variants
    * with their scores kᵢ, best first.
    */
  private final case class Descriptor(weight: Double, after: Boolean, expansions: Array[(Array[String], Double)])
      extends Cond {
    def score(v: ValueView, doc: DocView): Double = {
      var total = 0.0
      (0 until doc.size).foreach { i =>
        val occs = v.occurrences(i)
        if (occs.nonEmpty) {
          val sv = doc(i)
          val live = expansions.filter(e => sv.hasAll(e._1))
          var best = 0.0
          if (live.nonEmpty) occs.foreach { occ =>
            val inRegion: Int => Boolean =
              if (after) _ >= occ + v.folded.length else _ < occ
            val regions = sv.clauses.map(cl => (cl.tids.filter(inRegion).map(sv.words(_)).toArray, cl.score))
            live.foreach { case (dWords, k) =>
              var sum = 0.0
              regions.foreach { case (words, l) => if (inOrder(dWords, words)) sum += k * l }
              best = math.max(best, sum)
            }
          }
          total += best
        }
      }
      total
    }
  }

  private def compile(c: SatCond): Cond = c match {
    case CContains(_, s, true, w) => Mentions(w, s)
    case CContains(_, s, false, w) => Contains(w, KokoParser.textTokens(s).toIndexedSeq)
    case CMatches(_, re, w) => Matches(w, Pattern.compile(re))
    case CDict(_, d, w) => InDict(w, Vocab.Dicts.getOrElse(d, Set.empty))
    case CSimilar(_, word, w) => Similar(w, word)
    case CAdjacent(_, s, before, w) => Adjacent(w, folded(KokoParser.textTokens(s)), before)
    case CNear(_, s, w) => Near(w, folded(KokoParser.textTokens(s)))
    case CDescriptor(_, phrase, after, w) =>
      Descriptor(w, after, Embeddings.expand(phrase).map { case (ws, k) => (folded(ws), k) }.toArray)
  }

  /** A query's satisfying and excluding clauses, compiled once per query
    * (before the Spark job, and broadcast with the query). Excluding
    * conditions are grouped by variable, in the order the variables first
    * appear.
    */
  final class SatPlan private (
      private[Aggregator] val satisfying: Seq[(Satisfying, Seq[Cond])],
      private[Aggregator] val excluding: Seq[(String, Seq[Cond])]) extends Serializable {
    def isEmpty: Boolean = satisfying.isEmpty && excluding.isEmpty
  }

  object SatPlan {
    def apply(nq: NormQuery): SatPlan = apply(nq.satisfying, nq.excluding)

    def apply(satisfying: Seq[Satisfying], excluding: Seq[SatCond]): SatPlan =
      new SatPlan(
        satisfying.map(sat => sat -> sat.conds.map(compile)),
        excluding.map(_.v).distinct.map(v => v -> excluding.filter(_.v == v).map(compile)))
  }

  // ------------------------------------------------------------- scoring

  /** Scores the values of one document: one view per sentence and per
    * value, one score per (variable, value).
    */
  private final class DocScorer(docSents: Seq[Sent]) {
    private val doc = new DocView(docSents.toIndexedSeq)
    private val values = mutable.HashMap[String, ValueView]()
    private val scores = mutable.HashMap[(String, String), Double]()
    private val excludedBy = mutable.HashMap[(String, String), Boolean]()

    def condScore(c: Cond, text: String): Double =
      c.score(values.getOrElseUpdate(text, new ValueView(text, doc)), doc)

    /** The weighted sum of variable `x`'s clause for value `text`. */
    def satScore(x: String, conds: Seq[Cond], text: String): Double =
      scores.getOrElseUpdate((x, text), conds.map(c => c.weight * condScore(c, text)).sum)

    def nScored: Int = scores.size

    def excluded(plan: SatPlan, c: Cand): Boolean = plan.excluding.exists { case (x, conds) =>
      c.vals.get(x).exists(text =>
        excludedBy.getOrElseUpdate((x, text), conds.exists(condScore(_, text) > 0)))
    }
  }

  /** Confidence mᵢ(e) of one condition for value `e` over the document. */
  def condScore(c: SatCond, value: String, docSents: Seq[Sent]): Double =
    new DocScorer(docSents).condScore(compile(c), value)

  /** Weighted-sum score of a satisfying clause for one value. */
  def score(sat: Satisfying, value: String, docSents: Seq[Sent]): Double =
    new DocScorer(docSents).satScore(sat.v, sat.conds.map(compile), value)

  /** One document's output rows, and the number of distinct
    * (variable, value) pairs its satisfying clauses scored.
    */
  final case class DocRows(rows: Seq[OutRow], nValues: Int)

  /** The output rows of one document (§4.4.1): each tuple is scored by
    * every satisfying clause (once per distinct value in the document) and
    * kept iff each score reaches its threshold and no excluding condition
    * fires (checked once per distinct value). `docSents` are all the
    * document's sentences, sorted by `sid`.
    */
  def aggregate(plan: SatPlan, tuples: Seq[Cand], docSents: Seq[Sent]): DocRows = {
    val scorer = new DocScorer(docSents)
    val rows = tuples.flatMap { c =>
      val scores = plan.satisfying.map { case (sat, conds) =>
        sat.v -> scorer.satScore(sat.v, conds, c.vals(sat.v))
      }.toMap
      val pass = plan.satisfying.forall { case (sat, _) => scores(sat.v) >= sat.threshold }
      if (pass && !scorer.excluded(plan, c)) Some(OutRow(c.doc, c.sid, c.vals, scores)) else None
    }
    DocRows(rows, scorer.nScored)
  }
}
