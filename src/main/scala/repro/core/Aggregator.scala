package repro.core

import java.util.regex.Pattern
import repro.nlp.{CaseFold, ClauseDecomposer, CorpusGen, Embeddings, Sent, Vocab}
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
  * per query into a [[Cond]] (a weight and a confidence function) and
  * numbers its case-folded pattern words `0 until V`; a [[Lexicon]] gives
  * every other word the id of its [[CaseFold]] (`equalsIgnoreCase`), so
  * words compare by id. [[aggregate]] then scores one document's values
  * through one [[Doc]]. A sentence that lacks the value, or a descriptor
  * variant with a word the sentence lacks, contributes 0 and is skipped;
  * every term is ≥ 0, so the sums keep their order and their bits. The
  * engine and [[NaiveKoko]] both call [[aggregate]].
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

  /** Start indices of the contiguous occurrences of `needle` in `hay`. */
  private def occurrencesIn(needle: Array[Int], hay: Array[Int]): Array[Int] = {
    var out: mutable.ArrayBuilder.ofInt = null
    var i = 0
    while (needle.nonEmpty && i <= hay.length - needle.length) {
      if (matchesAt(needle, i, hay)) {
        if (out == null) out = new mutable.ArrayBuilder.ofInt
        out += i
      }
      i += 1
    }
    if (out == null) Array.emptyIntArray else out.result()
  }

  private def matchesAt(needle: Array[Int], st: Int, hay: Array[Int]): Boolean = {
    var k = 0
    while (k < needle.length && hay(st + k) == needle(k)) k += 1
    k == needle.length
  }

  /** In-order, gapped containment of `needle` in `hay(from until until)`. */
  private def inOrder(needle: Array[Int], hay: Array[Int], from: Int, until: Int): Boolean = {
    var h = from
    var k = 0
    while (k < needle.length && h < until) {
      if (hay(h) == needle(k)) k += 1
      h += 1
    }
    k == needle.length
  }

  /** `needle`'s folded words numbered by first position, and `hay`'s words as those ids (-1 if not in `needle`). */
  private def localIds(needle: Seq[String], hay: Iterable[String]): (Array[Int], Array[Int]) = {
    val words = needle.map(CaseFold(_)).toArray
    (words.map(words.indexOf(_)), hay.iterator.map(w => words.indexOf(CaseFold(w))).toArray)
  }

  /** Occurrence start indices of a token sequence in a sentence (case-insensitive, contiguous). */
  def occurrences(words: Seq[String], s: Sent): Seq[Int] = {
    val (needle, hay) = localIds(words, s.toks.view.map(_.word))
    occurrencesIn(needle, hay).toSeq
  }

  /** In-order, gapped containment of `needle` in `hay`. */
  def occursInOrder(needle: Seq[String], hay: Seq[String]): Boolean = {
    val (n, h) = localIds(needle, hay)
    inOrder(n, h, 0, h.length)
  }

  /** A task's word ids for one plan: the plan's words keep their ids and
    * each other folded word gets the next id on first sight, so two words
    * share an id iff [[CaseFold]] maps them to the same string. It memoizes
    * by the raw word ([[repro.index.Shard.sent]] hands out shared
    * instances), so a word is folded once per task, and a value's tokens by
    * its text. It has one owner thread: a shard task, or one
    * [[NaiveKoko.run]].
    */
  final class Lexicon(val plan: SatPlan) {
    private val byFold = new java.util.HashMap[String, Integer]()
    plan.words.indices.foreach(i => byFold.put(plan.words(i), i))
    private val byRaw = new java.util.HashMap[String, Integer]()

    def id(word: String): Int = {
      var k = byRaw.get(word)
      if (k == null) {
        val f = CaseFold(word)
        k = byFold.get(f)
        if (k == null) { k = byFold.size; byFold.put(f, k) }
        byRaw.put(word, k)
      }
      k
    }

    private val tokens = new java.util.HashMap[String, Array[String]]()
    def tokensOf(text: String): Array[String] = tokens.computeIfAbsent(text, KokoParser.textTokens(_).toArray)
  }

  /** One document's sentences in `sid` order as the conditions read them,
    * each part built on first use: word ids, one sentence mask per plan
    * word (bit `i` for sentence `i`, so at most
    * [[CorpusGen.MaxSentsPerDoc]] = 64 sentences), clauses and each
    * descriptor's live variants; and its [[Value]]s by text.
    */
  private final class Doc(sents: IndexedSeq[Sent], val lex: Lexicon) {
    require(sents.size <= CorpusGen.MaxSentsPerDoc,
      s"document ${sents.head.doc} has ${sents.size} sentences, more than ${CorpusGen.MaxSentsPerDoc}")
    val indices: Range = sents.indices
    lazy val ids: Array[Array[Int]] = {
      val out = new Array[Array[Int]](sents.size)
      indices.foreach { i =>
        out(i) = new Array[Int](sents(i).t)
        var t = 0
        sents(i).toks.foreach { tok => out(i)(t) = lex.id(tok.word); t += 1 }
      }
      out
    }
    private lazy val masks: Array[Long] = {
      val out = new Array[Long](lex.plan.words.length)
      indices.foreach(i => ids(i).foreach(w => if (w < out.length) out(w) |= 1L << i))
      out
    }
    private val clauseMemo = new Array[Array[Clause]](sents.size)
    def clauses(i: Int): Array[Clause] = {
      if (clauseMemo(i) == null) clauseMemo(i) = ClauseDecomposer.clauses(sents(i)).iterator.map { cl =>
        val tids = cl.tids.toArray
        val cids = new Array[Int](tids.length)
        tids.indices.foreach(k => cids(k) = ids(i)(tids(k)))
        new Clause(tids, cids, cl.score)
      }.toArray
      clauseMemo(i)
    }
    // Keyed by a descriptor's compiled variants, one array per condition.
    private val liveMemo = new java.util.IdentityHashMap[Array[Array[Int]], Live]()

    /** The live variants of a descriptor in this document, built once per (descriptor, document). */
    def live(variants: Array[Array[Int]]): Live = liveMemo.computeIfAbsent(variants, vs => {
      val out = new Array[Long](vs.length)
      var any = 0L
      var j = 0
      while (j < vs.length) {
        var m = -1L
        var k = 0
        while (k < vs(j).length) { m &= masks(vs(j)(k)); k += 1 }
        out(j) = m
        any |= m
        j += 1
      }
      new Live(out, any)
    })
    private val values = mutable.HashMap[String, Value]()
    def value(text: String): Value = values.getOrElseUpdate(text, new Value(text, this))
    def nScored: Int = values.valuesIterator.map(_.scores.count(_ != null)).sum

    /** The weighted sum of the plan's `k`-th satisfying clause for value `text`. */
    def score(k: Int, text: String): Double = {
      val v = value(text)
      if (v.scores(k) == null) v.scores(k) = lex.plan.satisfying(k)._2.map(c => c.weight * c.score(v, this)).sum
      v.scores(k)
    }

    /** Whether a condition of the plan's `k`-th excluding group fires for value `text`. */
    def excluded(k: Int, text: String): Boolean = {
      val v = value(text)
      if (v.excluded(k) == null) v.excluded(k) = lex.plan.excluding(k)._2.exists(_.score(v, this) > 0)
      v.excluded(k)
    }
  }

  /** A descriptor's variants in one document: per variant, the mask of
    * the sentences holding all its words (the AND of their masks), and the
    * OR of those masks.
    */
  private final class Live(val masks: Array[Long], val any: Long)

  /** A clause of a sentence: its token indices, ascending, their word ids and its score lⱼ. */
  private final class Clause(val tids: Array[Int], val ids: Array[Int], val score: Double) {
    /** Whether `needle` occurs in order in the clause's region for a value
      * at `edge`: the prefix of its tokens before token `edge`, or if
      * `after` the suffix from `edge` on.
      */
    def holds(needle: Array[Int], edge: Int, after: Boolean): Boolean = {
      val k = java.util.Arrays.binarySearch(tids, edge)
      val cut = if (k >= 0) k else -k - 1
      if (after) inOrder(needle, ids, cut, ids.length) else inOrder(needle, ids, 0, cut)
    }
  }

  /** A value of one document: its tokens, their occurrences in each
    * sentence, and its clause scores and exclusions by the clause's index
    * in the plan.
    */
  private final class Value(val text: String, doc: Doc) {
    val words: Array[String] = doc.lex.tokensOf(text)
    val scores = new Array[java.lang.Double](doc.lex.plan.satisfying.size)
    val excluded = new Array[java.lang.Boolean](doc.lex.plan.excluding.size)
    lazy val occurrences: Array[Array[Int]] = {
      val needle = words.map(doc.lex.id)
      val out = new Array[Array[Int]](doc.indices.size)
      doc.indices.foreach(i => out(i) = occurrencesIn(needle, doc.ids(i)))
      out
    }
  }

  /** A confidence mᵢ(e) over a document; a SAM type, so that its result is not boxed. */
  private trait Confidence extends Serializable { def apply(v: Value, doc: Doc): Double }

  /** One condition, compiled once per query: its weight wᵢ and its confidence mᵢ(e). */
  private final case class Cond(weight: Double, score: Confidence)

  private def bool(b: Boolean): Double = if (b) 1.0 else 0.0

  /** `c` compiled, its pattern words numbered by `id`. */
  private def compile(id: String => Int)(c: SatCond): Cond = Cond(c.weight, c match {
    case CContains(_, s, true, _) => (v, _) => bool(v.text.contains(s))
    case CContains(_, s, false, _) =>
      val words = KokoParser.textTokens(s).toArray
      (v, _) => bool(words.nonEmpty && v.words.indices.exists(v.words.startsWith(words, _)))
    case CMatches(_, re, _) =>
      val p = Pattern.compile(re)
      (v, _) => bool(p.matcher(v.text).matches())
    case CDict(_, d, _) =>
      val dict = Vocab.Dicts.getOrElse(d, Set.empty)
      (v, _) => bool(dict.contains(CaseFold(v.text)))
    case CSimilar(_, word, _) => (v, _) => v.words.map(Embeddings.sim(_, word)).maxOption.getOrElse(0.0)
    case CAdjacent(_, s, before, _) =>
      val pat = KokoParser.textTokens(s).map(id).toArray
      (v, doc) => bool(doc.indices.exists { i =>
        val words = doc.ids(i)
        v.occurrences(i).exists { o =>
          val st = if (before) o - pat.length else o + v.words.length
          st >= 0 && st + pat.length <= words.length && matchesAt(pat, st, words)
        }
      })
    case CNear(_, s, _) =>
      val pat = KokoParser.textTokens(s).map(id).toArray
      (v, doc) => {
        val n = v.words.length
        var best = 0.0
        doc.indices.foreach { i =>
          val vs = v.occurrences(i)
          if (vs.nonEmpty) occurrencesIn(pat, doc.ids(i)).foreach { p =>
            vs.foreach { o =>
              val d = math.max(0, math.max(p - (o + n), o - (p + pat.length)))
              best = math.max(best, 1.0 / (1 + d))
            }
          }
        }
        best
      }
    case CDescriptor(_, phrase, after, _) =>
      val expanded = Embeddings.expand(phrase)
      val variants = expanded.map(_._1.map(id).toArray).toArray
      val ks = expanded.map(_._2).toArray
      (v, doc) => {
        val live = doc.live(variants)
        var total = 0.0
        doc.indices.foreach { i =>
          val bit = 1L << i
          val occs = if ((live.any & bit) != 0) v.occurrences(i) else Array.emptyIntArray
          var best = 0.0
          var o = 0
          while (o < occs.length) {
            val edge = if (after) occs(o) + v.words.length else occs(o)
            val clauses = doc.clauses(i)
            var j = 0
            while (j < variants.length) {
              if ((live.masks(j) & bit) != 0) {
                var sum = 0.0
                var c = 0
                while (c < clauses.length) {
                  if (clauses(c).holds(variants(j), edge, after)) sum += ks(j) * clauses(c).score
                  c += 1
                }
                best = math.max(best, sum)
              }
              j += 1
            }
            o += 1
          }
          total += best
        }
        total
      }
  })

  /** A query's satisfying and excluding clauses, compiled once per query
    * (before the Spark job, and shipped with the query). Excluding
    * conditions are grouped by variable, in the order the variables first
    * appear. `words` are the plan's folded pattern words, by id.
    */
  final class SatPlan private (
      private[Aggregator] val satisfying: IndexedSeq[(Satisfying, Seq[Cond])],
      private[Aggregator] val excluding: IndexedSeq[(String, Seq[Cond])],
      private[Aggregator] val words: Array[String]) extends Serializable {
    def isEmpty: Boolean = satisfying.isEmpty && excluding.isEmpty
  }

  object SatPlan {
    def apply(nq: NormQuery): SatPlan = apply(nq.satisfying, nq.excluding)
    def apply(satisfying: Seq[Satisfying], excluding: Seq[SatCond]): SatPlan = {
      val words = mutable.LinkedHashMap[String, Int]()
      val c = compile(w => words.getOrElseUpdate(CaseFold(w), words.size)) _
      new SatPlan(
        satisfying.map(sat => sat -> sat.conds.map(c)).toIndexedSeq,
        excluding.map(_.v).distinct.map(v => v -> excluding.filter(_.v == v).map(c)).toIndexedSeq,
        words.keys.toArray)
    }
  }

  /** Confidence mᵢ(e) of one condition for value `e` over the document. */
  def condScore(c: SatCond, value: String, docSents: Seq[Sent]): Double = {
    val doc = new Doc(docSents.toIndexedSeq, new Lexicon(SatPlan(Nil, Seq(c))))
    doc.lex.plan.excluding.head._2.head.score(doc.value(value), doc)
  }

  /** Weighted-sum score of a satisfying clause for one value. */
  def score(sat: Satisfying, value: String, docSents: Seq[Sent]): Double =
    new Doc(docSents.toIndexedSeq, new Lexicon(SatPlan(Seq(sat), Nil))).score(0, value)

  /** One document's output rows, and the number of (variable, value) pairs its satisfying clauses scored. */
  final case class DocRows(rows: Seq[OutRow], nValues: Int)

  /** [[aggregate]] through a lexicon of its own. */
  def aggregate(plan: SatPlan, tuples: Seq[Cand], docSents: Seq[Sent]): DocRows =
    aggregate(new Lexicon(plan), tuples, docSents)

  /** The output rows of one document (§4.4.1): each tuple is scored by
    * every satisfying clause of `lex.plan` (once per distinct value in the
    * document) and kept iff each score reaches its threshold and no
    * excluding condition fires (checked once per distinct value).
    * `docSents` are all the document's sentences, sorted by `sid`: at most
    * [[CorpusGen.MaxSentsPerDoc]], or it throws `IllegalArgumentException`.
    */
  def aggregate(lex: Lexicon, tuples: Seq[Cand], docSents: Seq[Sent]): DocRows = {
    val plan = lex.plan
    val doc = new Doc(docSents.toIndexedSeq, lex)
    val sats = plan.satisfying.map(_._1)
    val rows = tuples.flatMap { c =>
      val scores = sats.indices.map(k => sats(k).v -> doc.score(k, c.vals(sats(k).v))).toMap
      val keep = sats.forall(sat => scores(sat.v) >= sat.threshold) &&
        !plan.excluding.indices.exists(k => doc.excluded(k, c.vals(plan.excluding(k)._1)))
      if (keep) Some(OutRow(c.doc, c.sid, c.vals, scores)) else None
    }
    DocRows(rows, doc.nScored)
  }
}
