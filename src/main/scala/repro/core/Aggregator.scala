package repro.core

import java.util.regex.Pattern
import repro.nlp.{CaseFold, ClauseDecomposer, Embeddings, Sent, Vocab}
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
  * Scoring is split in two. A [[SatPlan]] compiles each condition once
  * per query into a [[Cond]]: a weight and a confidence function over
  * tokenized and case-folded patterns, compiled regexes, dictionary sets
  * and the descriptor expansions (capped at [[Embeddings.TopK]] per query,
  * §5). [[aggregate]] then scores one document's values through one
  * [[Doc]]: each sentence's folded words, their set and its clauses, built
  * once, and each [[Value]]'s occurrences, found once per sentence. Words
  * compare by [[CaseFold]], which is `equalsIgnoreCase`. A sentence that
  * lacks the value, or a descriptor variant with a word the sentence
  * lacks, contributes 0 and is skipped; every term is ≥ 0, so the sums
  * keep their order and their bits. The engine and [[NaiveKoko]] both call
  * [[aggregate]].
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

  /** Start indices of the contiguous occurrences of `needle` in `hay`, words compared exactly. */
  private def occurrencesIn(needle: Array[String], hay: Array[String]): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (needle.nonEmpty && i <= hay.length - needle.length) {
      if (matchesAt(needle, i, hay)) out += i
      i += 1
    }
    out.result()
  }

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

  private def folded(words: Iterable[String]): Array[String] = {
    val out = new Array[String](words.size)
    var i = 0
    words.foreach { w => out(i) = CaseFold(w); i += 1 }
    out
  }

  private def foldedWords(s: Sent): Array[String] = folded(s.toks.view.map(_.word))

  /** Occurrence start indices of a token sequence in a sentence (case-insensitive, contiguous). */
  def occurrences(words: Seq[String], s: Sent): Seq[Int] =
    occurrencesIn(folded(words), foldedWords(s)).toSeq

  /** In-order, gapped containment of `needle` in `hay`. */
  def occursInOrder(needle: Seq[String], hay: Seq[String]): Boolean = inOrder(folded(needle), folded(hay))

  /** A descriptor's folded variants and their kᵢ, best first, compiled
    * once per condition; it keys the [[Doc]]'s memo of live variants.
    */
  private final class Variants(val all: Seq[(Array[String], Double)]) extends Serializable

  /** One document's sentences in `sid` order as the conditions read them
    * (folded words and their set on first use, for every sentence; clauses
    * and each descriptor's live variants on first use, per sentence), and
    * the memos of its values, scores and exclusions, keyed by (variable,
    * value).
    */
  private final class Doc(sents: IndexedSeq[Sent]) {
    def indices: Range = sents.indices
    lazy val words: Array[Array[String]] = sents.iterator.map(foldedWords).toArray
    private lazy val wordSets = words.map { ws =>
      val set = new java.util.HashSet[String](2 * ws.length)
      ws.foreach(set.add)
      set
    }
    def hasAll(i: Int, ws: Array[String]): Boolean = {
      val set = wordSets(i)
      var k = 0
      while (k < ws.length && set.contains(ws(k))) k += 1
      k == ws.length
    }
    private val clauseMemo = new Array[Seq[ClauseDecomposer.Clause]](sents.size)
    def clauses(i: Int): Seq[ClauseDecomposer.Clause] = {
      if (clauseMemo(i) == null) clauseMemo(i) = ClauseDecomposer.clauses(sents(i))
      clauseMemo(i)
    }
    private val liveMemo = mutable.HashMap[Variants, Array[Seq[(Array[String], Double)]]]()

    /** The variants of `d` whose words all occur in sentence `i`. */
    def live(d: Variants, i: Int): Seq[(Array[String], Double)] = {
      val bySent = liveMemo.getOrElseUpdate(d, new Array(sents.size))
      if (bySent(i) == null) bySent(i) = d.all.filter(e => hasAll(i, e._1))
      bySent(i)
    }
    private val values = mutable.HashMap[String, Value]()
    private val scores = mutable.HashMap[(String, String), Double]()
    private val exclusions = mutable.HashMap[(String, String), Boolean]()
    def nScored: Int = scores.size

    def condScore(c: Cond, text: String): Double = c.score(values.getOrElseUpdate(text, new Value(text, this)), this)

    /** The weighted sum of variable `x`'s clause for value `text`. */
    def score(x: String, conds: Seq[Cond], text: String): Double =
      scores.getOrElseUpdate((x, text), conds.map(c => c.weight * condScore(c, text)).sum)

    def excluded(x: String, conds: Seq[Cond], text: String): Boolean =
      exclusions.getOrElseUpdate((x, text), conds.exists(condScore(_, text) > 0))
  }

  /** A value of one document: its tokens, folded and not, and their occurrences in each sentence. */
  private final class Value(val text: String, doc: Doc) {
    val words: Array[String] = KokoParser.textTokens(text).toArray
    val folded: Array[String] = Aggregator.folded(words)
    lazy val occurrences: Array[Array[Int]] = Array.tabulate(doc.indices.size)(i =>
      if (doc.hasAll(i, folded)) occurrencesIn(folded, doc.words(i)) else Array.emptyIntArray)
  }

  /** One condition, compiled once per query: its weight wᵢ and its confidence mᵢ(e) over a document. */
  private final case class Cond(weight: Double, score: (Value, Doc) => Double)

  private def bool(b: Boolean): Double = if (b) 1.0 else 0.0

  private def compile(c: SatCond): Cond = Cond(c.weight, c match {
    case CContains(_, s, true, _) => (v, _) => bool(v.text.contains(s))
    case CContains(_, s, false, _) =>
      val words = KokoParser.textTokens(s).toArray
      (v, _) => bool(occurrencesIn(words, v.words).nonEmpty)
    case CMatches(_, re, _) =>
      val p = Pattern.compile(re)
      (v, _) => bool(p.matcher(v.text).matches())
    case CDict(_, d, _) =>
      val dict = Vocab.Dicts.getOrElse(d, Set.empty)
      (v, _) => bool(dict.contains(CaseFold(v.text)))
    case CSimilar(_, word, _) => (v, _) => v.words.map(Embeddings.sim(_, word)).maxOption.getOrElse(0.0)
    case CAdjacent(_, s, before, _) =>
      val pat = folded(KokoParser.textTokens(s))
      (v, doc) => bool(doc.indices.exists { i =>
        val words = doc.words(i)
        v.occurrences(i).exists { o =>
          val st = if (before) o - pat.length else o + v.folded.length
          st >= 0 && st + pat.length <= words.length && matchesAt(pat, st, words)
        }
      })
    case CNear(_, s, _) =>
      val pat = folded(KokoParser.textTokens(s))
      (v, doc) => {
        val n = v.folded.length
        var best = 0.0
        doc.indices.foreach { i =>
          val vs = v.occurrences(i)
          if (vs.nonEmpty) occurrencesIn(pat, doc.words(i)).foreach { p =>
            vs.foreach { o =>
              val d = math.max(0, math.max(p - (o + n), o - (p + pat.length)))
              best = math.max(best, 1.0 / (1 + d))
            }
          }
        }
        best
      }
    case CDescriptor(_, phrase, after, _) =>
      val variants = new Variants(Embeddings.expand(phrase).map { case (ws, k) => (folded(ws), k) })
      (v, doc) => {
        var total = 0.0
        doc.indices.foreach { i =>
          val occs = v.occurrences(i)
          if (occs.nonEmpty) {
            val sentWords = doc.words(i)
            val live = doc.live(variants, i)
            var best = 0.0
            if (live.nonEmpty) occs.foreach { occ =>
              val inRegion: Int => Boolean =
                if (after) _ >= occ + v.folded.length else _ < occ
              val regions = doc.clauses(i).map(cl => (cl.tids.filter(inRegion).map(sentWords(_)).toArray, cl.score))
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
  })

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

  /** Confidence mᵢ(e) of one condition for value `e` over the document. */
  def condScore(c: SatCond, value: String, docSents: Seq[Sent]): Double =
    new Doc(docSents.toIndexedSeq).condScore(compile(c), value)

  /** Weighted-sum score of a satisfying clause for one value. */
  def score(sat: Satisfying, value: String, docSents: Seq[Sent]): Double =
    new Doc(docSents.toIndexedSeq).score(sat.v, sat.conds.map(compile), value)

  /** One document's output rows, and the number of (variable, value) pairs its satisfying clauses scored. */
  final case class DocRows(rows: Seq[OutRow], nValues: Int)

  /** The output rows of one document (§4.4.1): each tuple is scored by
    * every satisfying clause (once per distinct value in the document) and
    * kept iff each score reaches its threshold and no excluding condition
    * fires (checked once per distinct value). `docSents` are all the
    * document's sentences, sorted by `sid`.
    */
  def aggregate(plan: SatPlan, tuples: Seq[Cand], docSents: Seq[Sent]): DocRows = {
    val doc = new Doc(docSents.toIndexedSeq)
    val rows = tuples.flatMap { c =>
      val scores = plan.satisfying.map { case (sat, conds) => sat.v -> doc.score(sat.v, conds, c.vals(sat.v)) }.toMap
      val keep = plan.satisfying.forall { case (sat, _) => scores(sat.v) >= sat.threshold } &&
        !plan.excluding.exists { case (x, conds) => c.vals.get(x).exists(doc.excluded(x, conds, _)) }
      if (keep) Some(OutRow(c.doc, c.sid, c.vals, scores)) else None
    }
    DocRows(rows, doc.nScored)
  }
}
