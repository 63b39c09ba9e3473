package repro.core

import java.util.Locale
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.nlp.{CorpusGen, Sent, Templates}
import scala.util.Random

class AggregatorSpec extends AnyFunSuite {
  import Ast._
  import Fixtures._
  import Templates.T

  private def mkSent(doc: Long, sid: Long, ts: Seq[Templates.T]): Sent =
    Sent(doc, sid, Templates.mk(ts))

  // "Blue Bottle serves delicious coffee ." style doc
  private val cafeName = ("Blue", "Bottle")
  private val servesDoc = Seq(
    mkSent(0, 0, Templates.cafeServes(new Random(11), cafeName)),
    mkSent(0, 1, Templates.cafeAppos(new Random(11), cafeName)),
    mkSent(0, 2, Templates.cafeBarista(new Random(11), cafeName)))

  test("contains is token containment; mentions is substring (paper §4.4.1)") {
    val v = "chocolate ice cream"
    assert(Aggregator.condScore(CContains("x", "ice", substring = false, 1), v, Nil) == 1.0)
    assert(Aggregator.condScore(CContains("x", "choc", substring = false, 1), v, Nil) == 0.0)
    assert(Aggregator.condScore(CContains("x", "choc", substring = true, 1), v, Nil) == 1.0)
  }

  test("matches is a full regex match") {
    assert(Aggregator.condScore(CMatches("x", "[Ll]a Marzocco", 1), "La Marzocco", Nil) == 1.0)
    assert(Aggregator.condScore(CMatches("x", "[Ll]a Marzocco", 1), "a La Marzocco fan", Nil) == 0.0)
  }

  test("dict membership uses the named dictionary") {
    assert(Aggregator.condScore(CDict("x", "Location", 1), "Portland", Nil) == 1.0)
    assert(Aggregator.condScore(CDict("x", "Location", 1), "Blue Bottle", Nil) == 0.0)
  }

  test("adjacency: x followed by ', a cafe' fires on the appos sentence") {
    val c = CAdjacent("x", ", a cafe", before = false, 1)
    assert(Aggregator.condScore(c, "Blue Bottle", servesDoc) == 1.0)
    assert(Aggregator.condScore(c, "Bottle", servesDoc) == 1.0) // suffix occurrence
    assert(Aggregator.condScore(c, "Blue", servesDoc) == 0.0)
  }

  test("adjacency: string before x") {
    val s = mkSent(1, 9, Templates.cafeMenu(new Random(2), cafeName))
    val c = CAdjacent("x", "menu at", before = true, 1)
    assert(Aggregator.condScore(c, "Blue Bottle", Seq(s)) == 1.0)
  }

  test("near scores 1/(1+distance) (§4.4.1)") {
    // "Blue Bottle serves delicious coffee ." — distance Bottle→coffee = 2
    val s = servesDoc.head
    val drink = s.toks(4).word
    val c = CNear("x", drink, 1)
    assert(math.abs(Aggregator.condScore(c, cafeName._1 + " " + cafeName._2, Seq(s)) - 1.0 / 3) < 1e-9)
    assert(Aggregator.condScore(CNear("x", s.toks(2).word, 1), "Blue Bottle", Seq(s)) == 1.0)
  }

  test("near takes the best (max) score over the document") {
    val c = CNear("x", "barista", 1)
    val score = Aggregator.condScore(c, "Blue Bottle", servesDoc)
    assert(score > 0 && score <= 1)
  }

  test("descriptor: exact phrase after x scores k=1 per clause (§4.4.1c)") {
    val s = mkSent(2, 20, Templates.cafeServes(new Random(1), cafeName))
    val verb = s.toks(2).word // a ServeVerb
    val drink = s.toks(4).word
    val c = CDescriptor("x", Seq(verb, drink), after = true, 1)
    val score = Aggregator.condScore(c, "Blue Bottle", Seq(s))
    assert(score == 1.0, s"got $score for '$verb $drink' after x in '${s.text}'")
  }

  test("descriptor: paraphrase match scores the expansion weight k_i") {
    // sentence says "<verb> <drink>"; descriptor says "serves coffee"
    val s = mkSent(2, 21, Templates.cafeServes(new Random(4), cafeName))
    val verb = s.toks(2).word
    val drink = s.toks(4).word
    val c = CDescriptor("x", Seq("serves", "coffee"), after = true, 1)
    val score = Aggregator.condScore(c, "Blue Bottle", Seq(s))
    val expected = repro.nlp.Embeddings.sim("serves", verb) * repro.nlp.Embeddings.sim("coffee", drink)
    assert(math.abs(score - expected) < 1e-9, s"got $score, expected $expected ('$verb $drink')")
  }

  test("descriptor region: only text after x counts for x [[d]]") {
    val s = mkSent(2, 22, Templates.cafeMenu(new Random(3), cafeName))
    // "The coffee menu at <X> is <adj>": "coffee menu" is BEFORE x
    assert(Aggregator.condScore(CDescriptor("x", Seq("coffee", "menu"), after = true, 1),
      "Blue Bottle", Seq(s)) == 0.0)
    assert(Aggregator.condScore(CDescriptor("x", Seq("coffee", "menu"), after = false, 1),
      "Blue Bottle", Seq(s)) == 1.0)
  }

  test("descriptor sums over sentences (document-level aggregation)") {
    val two = Seq(
      mkSent(3, 30, Templates.cafeServes(new Random(1), cafeName)),
      mkSent(3, 31, Templates.cafeServes(new Random(2), cafeName)))
    val c = CDescriptor("x", Seq("serves", "coffee"), after = true, 1)
    val s1 = Aggregator.condScore(c, "Blue Bottle", two.take(1))
    val s2 = Aggregator.condScore(c, "Blue Bottle", two.drop(1))
    val both = Aggregator.condScore(c, "Blue Bottle", two)
    assert(math.abs(both - (s1 + s2)) < 1e-9)
  }

  test("descriptor matching respects clause boundaries (fig1)") {
    // "delicious" is in the rcmod clause; "ate ... pie" in the conj clause:
    // the word sequence "delicious pie" never occurs within one clause
    val c = CDescriptor("x", Seq("delicious", "pie"), after = true, 1)
    assert(Aggregator.condScore(c, "I", Seq(fig1)) == 0.0)
    val ok = CDescriptor("x", Seq("was", "delicious"), after = true, 1)
    assert(Aggregator.condScore(ok, "I", Seq(fig1)) == 1.0)
  }

  test("similarTo uses embedding similarity (Example 2.2 values)") {
    assert(Aggregator.condScore(CSimilar("a", "city", 1), "Tokyo", Nil) ==
      repro.nlp.Embeddings.sim("Tokyo", "city"))
    assert(Aggregator.condScore(CSimilar("a", "country", 1), "China", Nil) ==
      repro.nlp.Embeddings.sim("China", "country"))
    assert(Aggregator.condScore(CSimilar("v", "born", 1), "born", Nil) == 1.0)
  }

  test("score is the weighted sum of condition confidences (§4.4.1)") {
    val sat = Satisfying("x", Seq(
      CContains("x", "Bottle", substring = false, 0.4),
      CAdjacent("x", ", a cafe", before = false, 0.3),
      CNear("x", "nothinghere", 0.3)), 0.5)
    val s = Aggregator.score(sat, "Blue Bottle", servesDoc)
    assert(math.abs(s - (0.4 * 1.0 + 0.3 * 1.0 + 0.0)) < 1e-9)
  }

  private def normalize(q: String): Normalizer.NormQuery = Normalizer.normalize(KokoParser.parse(q))

  test("excluded fires when any excluding condition scores > 0") {
    val nq = normalize(
      """extract x:Entity from "cafe" if ()
        |excluding (str(x) in dict("Location")) or (str(x) matches "CEO")""".stripMargin)
    val tuples = Seq("Portland", "CEO", "Blue Bottle").map(v =>
      SentenceEvaluator.Cand(0, 0, Map("x" -> v)))
    assert(Aggregator.aggregate(Aggregator.SatPlan(nq), tuples, Nil).rows ==
      Seq(Aggregator.OutRow(0, 0, Map("x" -> "Blue Bottle"), Map.empty)))
  }

  test("aggregate scores each value per document; a score at the threshold passes") {
    // Doc 0 has the appositive ", a cafe": 0.25 + 0.5 = 0.75, exactly the
    // threshold. Doc 1 only says "Blue Bottle serves ...": 0.25 < 0.75.
    val nq = normalize(
      """extract x:Entity from "cafe" if ()
        |satisfying x (str(x) contains "Bottle" {0.25}) or (x ", a cafe" {0.5})
        |with threshold 0.75""".stripMargin)
    val doc1 = Seq(mkSent(1, 64, Templates.cafeServes(new Random(5), cafeName)))
    assert(doc1.flatMap(SentenceEvaluator.extract(nq, _)).exists(_.vals("x") == "Blue Bottle"))
    val rows = NaiveKoko.run(nq, servesDoc ++ doc1)
    val blueBottle = rows.filter(_.vals("x") == "Blue Bottle")
    assert(blueBottle.nonEmpty && blueBottle.forall(_.scores == Map("x" -> 0.75)))
    assert(rows.forall(_.doc == 0))
  }

  test("two satisfying clauses on variables bound to the same value are scored by their own conditions") {
    val plan = Aggregator.SatPlan(Seq(
      Satisfying("x", Seq(CContains("x", "Bottle", substring = false, 1)), 1.0),
      Satisfying("y", Seq(CContains("y", "Nothing", substring = false, 1)), 0.5)), Nil)
    val tuples = Seq("Blue Bottle", "Nothing Bottle", "Nothing").map(v =>
      SentenceEvaluator.Cand(0, 0, Map("x" -> v, "y" -> v)))
    // Only "Nothing Bottle" passes both thresholds; "Blue Bottle" passes x's
    // alone and "Nothing" passes y's alone.
    assert(Aggregator.aggregate(plan, tuples, servesDoc).rows == Seq(Aggregator.OutRow(0, 0,
      Map("x" -> "Nothing Bottle", "y" -> "Nothing Bottle"), Map("x" -> 1.0, "y" -> 1.0))))
    val keepAll = Aggregator.SatPlan(Seq(
      Satisfying("x", Seq(CContains("x", "Bottle", substring = false, 1)), 0.0),
      Satisfying("y", Seq(CContains("y", "Nothing", substring = false, 1)), 0.0)), Nil)
    val out = Aggregator.aggregate(keepAll, tuples, servesDoc)
    assert(out.rows.map(_.scores) == Seq(
      Map("x" -> 1.0, "y" -> 0.0), Map("x" -> 1.0, "y" -> 1.0), Map("x" -> 0.0, "y" -> 1.0)))
    assert(out.nValues == 6)
  }

  test("dict and similarity fold case without the default locale") {
    val saved = Locale.getDefault
    try {
      // Under a Turkish locale "I".toLowerCase is dotless "ı".
      Locale.setDefault(Locale.forLanguageTag("tr"))
      assert(repro.nlp.Embeddings.sim("CITY", "city") == 1.0)
      assert(repro.nlp.Embeddings.sim("PARIS", "CITY") == repro.nlp.Embeddings.sim("Paris", "city"))
      assert(repro.nlp.Embeddings.neighbors("BARISTA").map(_._1).contains("baristas"))
      assert(Aggregator.condScore(CDict("x", "Location", 1), "PARIS", Nil) == 1.0)
      assert(Aggregator.condScore(CSimilar("x", "CITY", 1), "Paris", Nil) ==
        repro.nlp.Embeddings.sim("Paris", "city"))
    } finally Locale.setDefault(saved)
  }

  test("occurrences finds contiguous case-insensitive token matches") {
    assert(Aggregator.occurrences(Seq("chocolate", "ice", "cream"), fig1) == Seq(3))
    assert(Aggregator.occurrences(Seq("ATE"), fig1) == Seq(1, 13))
    assert(Aggregator.occurrences(Seq("ice", "cream", "pie"), fig1).isEmpty)
  }

  test("occursInOrder allows gaps but not reordering") {
    assert(Aggregator.occursInOrder(Seq("ate", "pie"), Seq("ate", "a", "tasty", "pie")))
    assert(!Aggregator.occursInOrder(Seq("pie", "ate"), Seq("ate", "a", "tasty", "pie")))
  }

  // ------------------------------------------------ plan == reference scorer

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def caseVariant(s: String): Gen[String] = Gen.oneOf(
    s, s.toUpperCase(Locale.ROOT), s.toLowerCase(Locale.ROOT), s.split(" ").map(_.capitalize).mkString(" "))

  /** A span of 1–3 tokens of one of the document's sentences. */
  private def spanOf(doc: Seq[Sent]): Gen[String] = for {
    s <- Gen.oneOf(doc)
    lo <- Gen.choose(0, s.t - 1)
    n <- Gen.choose(1, 3)
  } yield s.toks.slice(lo, lo + n).map(_.word).mkString(" ")

  /** Values: spans, entity mentions, words that occur more than once,
    * values absent from the document and the empty value, in any case.
    */
  private def valueIn(doc: Seq[Sent]): Gen[String] = {
    val mentions = doc.flatMap(_.toks.filter(_.eid >= 0).groupBy(_.eid).values.map(_.map(_.word).mkString(" ")))
    val repeated = doc.flatMap(_.toks.map(_.word)).groupBy(identity).collect { case (w, ws) if ws.size > 1 => w }
    val from = Seq(spanOf(doc), Gen.const("Zzyzx"), Gen.const("Blue Zzyzx"), Gen.const("")) ++
      Seq(mentions, repeated.toSeq).filter(_.nonEmpty).map(Gen.oneOf(_))
    Gen.oneOf(from).flatMap(identity).flatMap(caseVariant)
  }

  /** Condition strings: document spans in any case, and the cafe query's phrases. */
  private def textIn(doc: Seq[Sent]): Gen[String] = Gen.oneOf(
    spanOf(doc).flatMap(caseVariant),
    Gen.oneOf(", a cafe", "menu at", "serves coffee", "employs baristas", "coffee menu", "Coffee", "born", ""))

  /** One condition of every `SatCond` kind, with a weight. */
  private def condIn(doc: Seq[Sent]): Gen[SatCond] = {
    val text = textIn(doc)
    val w = Gen.oneOf(0.25, 0.5, 1.0, 0.3, 0.7)
    Gen.oneOf(
      for (s <- text; sub <- Gen.oneOf(true, false); w <- w) yield CContains("x", s, sub, w),
      for (re <- Gen.oneOf("[A-Z].*", ".*[Cc]afe.*", "[Ss]ynesso|[Aa]eropress|[Ll]a Marzocco", "\\p{Lu}\\w+ \\w+");
           w <- w) yield CMatches("x", re, w),
      for (d <- Gen.oneOf("Location", "CoffeeDrinks", "NoSuchDict"); w <- w) yield CDict("x", d, w),
      for (s <- Gen.oneOf(Gen.oneOf("city", "country", "coffee", "serves", "born"), spanOf(doc)); w <- w)
        yield CSimilar("x", s, w),
      for (s <- text; before <- Gen.oneOf(true, false); w <- w) yield CAdjacent("x", s, before, w),
      for (s <- text; w <- w) yield CNear("x", s, w),
      for (s <- text; after <- Gen.oneOf(true, false); w <- w)
        yield CDescriptor("x", KokoParser.textTokens(s), after, w))
  }

  test("the compiled plan scores every condition kind bit-identically to the reference scorer (scalacheck)") {
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 1000L)
      d <- Gen.choose(0L, 200L)
      doc = CorpusGen.docOf(kind, d, seed)
      nValues <- Gen.choose(1, 4)
      values <- Gen.listOfN(nValues, valueIn(doc))
      nConds <- Gen.choose(1, 4)
      conds <- Gen.listOfN(nConds, condIn(doc))
    } yield (doc, values, conds.toVector)
    val prop = Prop.forAllNoShrink(cases) { case (doc, values, conds) =>
      // Threshold 0 keeps every row, so aggregate reports every score; its
      // values share one document's sentence views.
      val sat = Satisfying("x", conds, 0.0)
      val tuples = values.map(v => SentenceEvaluator.Cand(doc.head.doc, doc.head.sid, Map("x" -> v)))
      val rows = Aggregator.aggregate(Aggregator.SatPlan(Seq(sat), Nil), tuples, doc).rows
      val perCond = for (c <- conds; v <- values)
        yield bits(Aggregator.condScore(c, v, doc)) == bits(ReferenceScorer.condScore(c, v, doc))
      val perValue = values.map(v => bits(Aggregator.score(sat, v, doc)) == bits(ReferenceScorer.score(sat, v, doc)))
      val aggregated = rows.map(r => bits(r.scores("x"))) == values.map(v => bits(ReferenceScorer.score(sat, v, doc)))
      (perCond.forall(identity) && perValue.forall(identity) && aggregated) :|
        s"$conds on ${values.map("'" + _ + "'")} in document ${doc.head.doc}: ${doc.map(_.text).mkString(" | ")}"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(23L), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  // ------------------------------------------- sentence masks and word ids

  private val farName = Seq(T("Anna", "propn", "nsubj", 1, "Person"), T("ate", "verb", "root", -1),
    T("pie", "noun", "dobj", 1), T(".", "punct", "punct", 1))

  /** "Blue Bottle , a cafe , serves coffee ." */
  private val cafeLine = Seq(T("Blue", "propn", "nn", 1, "Entity"), T("Bottle", "propn", "nsubj", 6, "Entity"),
    T(",", "punct", "punct", 1), T("a", "det", "det", 4), T("cafe", "noun", "appos", 1),
    T(",", "punct", "punct", 1), T("serves", "verb", "root", -1), T("coffee", "noun", "dobj", 6),
    T(".", "punct", "punct", 6))

  /** Document 7 with `n` sentences, `cafeLine` last and the others `farName`. */
  private def docOfSize(n: Int): Seq[Sent] =
    (0 until n).map(k => mkSent(7, CorpusGen.gsid(7, k), if (k == n - 1) cafeLine else farName))

  test("a document of 64 sentences scores its last sentence, the mask's sign bit, like the reference") {
    val doc = docOfSize(CorpusGen.MaxSentsPerDoc)
    val conds = Seq(CAdjacent("x", ", a cafe", before = false, 0.5), CDescriptor("x", Seq("serves", "coffee"),
      after = true, 0.25), CDescriptor("x", Seq("sells", "espresso"), after = true, 0.125), CNear("x", "coffee", 0.5))
    val sat = Satisfying("x", conds, 0.0)
    conds.foreach { c =>
      val got = Aggregator.condScore(c, "Blue Bottle", doc)
      assert(got > 0 && bits(got) == bits(ReferenceScorer.condScore(c, "Blue Bottle", doc)), c)
    }
    val rows = Aggregator.aggregate(Aggregator.SatPlan(Seq(sat), Nil),
      Seq(SentenceEvaluator.Cand(7, doc.last.sid, Map("x" -> "Blue Bottle"))), doc).rows
    assert(rows.map(r => bits(r.scores("x"))) == Seq(bits(ReferenceScorer.score(sat, "Blue Bottle", doc))))
  }

  test("a document of more than 64 sentences fails loudly, naming the document") {
    val doc = docOfSize(CorpusGen.MaxSentsPerDoc + 1)
    val sat = Satisfying("x", Seq(CAdjacent("x", ", a cafe", before = false, 1)), 0.0)
    val calls: Seq[() => Any] = Seq(
      () => Aggregator.condScore(sat.conds.head, "Blue Bottle", doc),
      () => Aggregator.score(sat, "Blue Bottle", doc),
      () => Aggregator.aggregate(Aggregator.SatPlan(Seq(sat), Nil),
        Seq(SentenceEvaluator.Cand(7, doc.last.sid, Map("x" -> "Blue Bottle"))), doc))
    calls.foreach { f =>
      val e = intercept[IllegalArgumentException](f())
      assert(e.getMessage.contains("document 7") && e.getMessage.contains("65 sentences"), e.getMessage)
    }
  }

  test("one lexicon scores documents bit-identically in any order, though it numbers their words differently (scalacheck)") {
    var renumbered = 0
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 1000L)
      ds <- Gen.listOfN(4, Gen.choose(0L, 200L))
      docs = ds.distinct.map(CorpusGen.docOf(kind, _, seed)).toVector
      nConds <- Gen.choose(1, 4)
      conds <- Gen.listOfN(nConds, condIn(docs.flatten))
      values <- docs.foldLeft(Gen.const(Vector.empty[List[String]])) { (acc, doc) =>
        acc.flatMap(vs => Gen.choose(1, 3).flatMap(Gen.listOfN(_, valueIn(doc))).map(vs :+ _))
      }
      shuffleSeed <- Gen.choose(0L, Long.MaxValue)
    } yield (docs, values, conds, new Random(shuffleSeed).shuffle(docs.indices.toVector))
    val prop = Prop.forAllNoShrink(cases) { case (docs, values, conds, order) =>
      val plan = Aggregator.SatPlan(Seq(Satisfying("x", conds, 0.0)), Nil)
      def scoresIn(docOrder: Seq[Int]): (Map[Int, Seq[Long]], Aggregator.Lexicon) = {
        val lex = new Aggregator.Lexicon(plan)
        (docOrder.map { k =>
          val tuples = values(k).map(v => SentenceEvaluator.Cand(docs(k).head.doc, docs(k).head.sid, Map("x" -> v)))
          k -> Aggregator.aggregate(lex, tuples, docs(k)).rows.map(r => bits(r.scores("x")))
        }.toMap, lex)
      }
      val (inOrder, lexIn) = scoresIn(docs.indices)
      val (shuffled, lexShuffled) = scoresIn(order)
      val words = docs.flatten.flatMap(_.toks.map(_.word))
      if (words.exists(w => lexIn.id(w) != lexShuffled.id(w))) renumbered += 1
      (inOrder == shuffled) :| s"$conds on $values, documents in order $order"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(29L), prop)
    assert(res.passed, Pretty.pretty(res))
    assert(renumbered > 0)
  }

  test("the lexicon gives words one id iff CaseFold folds them equal, under a Turkish default locale") {
    val saved = Locale.getDefault
    try {
      Locale.setDefault(Locale.forLanguageTag("tr"))
      val plan = Aggregator.SatPlan(Seq(Satisfying("x", Seq(CNear("x", "cafe TITLE", 1)), 0.0)), Nil)
      val lex = new Aggregator.Lexicon(plan)
      // The plan's own words come first: "cafe" is 0 and "title" is 1.
      Seq("CAFE", "Cafe", "cafe").foreach(w => assert(lex.id(w) == 0, w))
      Seq("title", "TITLE", "Title").foreach(w => assert(lex.id(w) == 1, w))
      val same = Seq(Seq("ſ", "s", "S"), Seq("\u212A", "k", "K"), Seq("Σ", "σ", "ς"), Seq("I", "i", "ı", "İ"))
      same.foreach(ws => assert(ws.map(lex.id).distinct.size == 1, ws))
      val apart = Seq("ß", "ss", "café", "cafes", "s", "k", "i")
      assert(apart.map(lex.id).distinct.size == apart.size)
      assert(apart.forall(lex.id(_) > 1))
    } finally Locale.setDefault(saved)
  }
}
