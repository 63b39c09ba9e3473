package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.nlp.{Sent, Templates}
import scala.util.Random

class AggregatorSpec extends AnyFunSuite {
  import Ast._
  import Fixtures._

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
    assert(Aggregator.aggregate(nq, tuples, Nil) ==
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

  test("occurrences finds contiguous case-insensitive token matches") {
    assert(Aggregator.occurrences(Seq("chocolate", "ice", "cream"), fig1) == Seq(3))
    assert(Aggregator.occurrences(Seq("ATE"), fig1) == Seq(1, 13))
    assert(Aggregator.occurrences(Seq("ice", "cream", "pie"), fig1).isEmpty)
  }

  test("occursInOrder allows gaps but not reordering") {
    assert(Aggregator.occursInOrder(Seq("ate", "pie"), Seq("ate", "a", "tasty", "pie")))
    assert(!Aggregator.occursInOrder(Seq("pie", "ate"), Seq("ate", "a", "tasty", "pie")))
  }
}
