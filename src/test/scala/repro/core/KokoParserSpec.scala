package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.{Failure, Success, Try}

class KokoParserSpec extends AnyFunSuite {
  import Ast._

  test("Example 2.1 parses: outputs, block defs, in-constraint") {
    val q = KokoParser.parse(
      """extract e:Entity, d:Str from "input.txt" if (
        | /ROOT:{ a = //verb,
        | b = a/dobj,
        | c = b//"delicious",
        | d = (b.subtree) }
        | (b) in (e) )""".stripMargin)
    assert(q.outputs == Seq(OutVar("e", "Entity"), OutVar("d", "Str")))
    assert(q.defs.size == 4)
    assert(q.defs.head == NodeDef("a", PathExpr(None, Seq(Step(Desc, LPos("verb"), Nil)))))
    assert(q.defs(1) == NodeDef("b", PathExpr(Some("a"), Seq(Step(Child, LParse("dobj"), Nil)))))
    assert(q.defs(2) == NodeDef("c", PathExpr(Some("b"), Seq(Step(Desc, LWord("delicious"), Nil)))))
    assert(q.defs(3) == SpanDef("d", Seq(ASubtree("b"))))
    assert(q.constraints == Seq(CIn("b", "e")))
  }

  test("step conditions parse with and without @") {
    val q = KokoParser.parse(
      """extract x:Str from f if ( /ROOT:{ x = //verb[text="ate"]/dobj[@pos="noun", etype="Person"] } )""")
    val NodeDef(_, p) = q.defs.head: @unchecked
    assert(p.steps.head.conds == Seq(StepCond("text", "ate")))
    assert(p.steps(1).conds == Seq(StepCond("pos", "noun"), StepCond("etype", "Person")))
  }

  test("wildcard label with pos condition: /root//*[@pos='noun']") {
    val q = KokoParser.parse(
      """extract x:Str from f if ( /ROOT:{ x = /root//*[@pos="noun"] } )""")
    val NodeDef(_, p) = q.defs.head: @unchecked
    assert(p.steps(1).label == LStar)
    assert(p.steps(1).conds == Seq(StepCond("pos", "noun")))
  }

  test("span definition with elastic atoms (Example 4.1 shape)") {
    val q = KokoParser.parse(
      """extract a:Entity from f if ( /ROOT:{ e = a + ^ + b + ^ + c } )""")
    val SpanDef(_, atoms) = q.defs.head: @unchecked
    assert(atoms.size == 5)
    assert(atoms(0) == AVar("a"))
    assert(atoms(1).isInstanceOf[AElastic])
    assert(atoms(4) == AVar("c"))
  }

  test("elastic with conditions: ^[etype='Entity']") {
    val q = KokoParser.parse(
      """extract a:Entity from f if ( /ROOT:{ x = //verb + ^[etype="Entity"] } )""")
    val SpanDef(_, atoms) = q.defs.head: @unchecked
    val AElastic(_, conds) = atoms(1): @unchecked
    assert(conds == Seq(StepCond("etype", "Entity")))
  }

  test("quoted token-sequence atoms split into words") {
    val q = KokoParser.parse(
      """extract a:Entity from f if ( /ROOT:{ x = "cafe called" + a } )""")
    val SpanDef(_, atoms) = q.defs.head: @unchecked
    assert(atoms.head == AWords(Seq("cafe", "called")))
  }

  test("satisfying clause: contains / adjacency / descriptor / weights (Example 2.3)") {
    val q = KokoParser.parse(
      """extract x:Entity from "input.txt" if ()
        |satisfying x
        | (str(x) contains "Cafe" {1}) or
        | (x ", a cafe" {1}) or
        | (x [["serves coffee"]] {0.5}) or
        | ([["coffee from"]] x {0.15})
        |with threshold 0.8
        |excluding (str(x) matches "[Ll]a Marzocco")""".stripMargin)
    val sat = q.satisfying.head
    assert(sat.v == "x" && sat.threshold == 0.8)
    assert(sat.conds(0) == CContains("x", "Cafe", substring = false, 1.0))
    assert(sat.conds(1) == CAdjacent("x", ", a cafe", before = false, 1.0))
    assert(sat.conds(2) == CDescriptor("x", Seq("serves", "coffee"), after = true, 0.5))
    assert(sat.conds(3) == CDescriptor("x", Seq("coffee", "from"), after = false, 0.15))
    assert(q.excluding == Seq(CMatches("x", "[Ll]a Marzocco", 1.0)))
  }

  test("mentions vs contains vs matches vs near vs dict") {
    val q = KokoParser.parse(
      """extract x:Entity from f if ()
        |satisfying x
        | (str(x) mentions "choc" {1}) or
        | (x near "coffee" {0.5}) or
        | (str(x) in dict("Location"))
        |with threshold 0.4""".stripMargin)
    val cs = q.satisfying.head.conds
    assert(cs(0) == CContains("x", "choc", substring = true, 1.0))
    assert(cs(1) == CNear("x", "coffee", 0.5))
    assert(cs(2) == CDict("x", "Location", 1.0))
  }

  test("similarTo (Example 2.2) and str(~) shorthand") {
    val q1 = KokoParser.parse(
      """extract a:GPE from "input.txt" if ()
        |satisfying a
        | (a SimilarTo "city" {1.0})""".stripMargin)
    assert(q1.satisfying.head.conds == Seq(CSimilar("a", "city", 1.0)))
    assert(q1.satisfying.head.threshold == 0.2) // default when omitted
    val q2 = KokoParser.parse(
      """extract a:Person from w if ( /ROOT:{ v = //verb } )
        |satisfying v (str(v) ~ "born" {1}) with threshold 0.5""".stripMargin)
    assert(q2.satisfying.head.conds == Seq(CSimilar("v", "born", 1.0)))
  }

  test("string-before-variable adjacency: ('cafes such as' x)") {
    val q = KokoParser.parse(
      """extract x:Entity from f if () satisfying x ("cafes such as" x {1}) with threshold 0.5""")
    assert(q.satisfying.head.conds == Seq(CAdjacent("x", "cafes such as", before = true, 1.0)))
  }

  test("multiple satisfying clauses, one per output variable") {
    val q = KokoParser.parse(
      """extract x:Entity, y:Entity from f if ()
        |satisfying x (str(x) contains "A" {1}) with threshold 0.3
        |satisfying y (str(y) contains "B" {1}) with threshold 0.7""".stripMargin)
    assert(q.satisfying.map(_.v) == Seq("x", "y"))
    assert(q.satisfying.map(_.threshold) == Seq(0.3, 0.7))
  }

  test("the Table-2 query analogs parse") {
    Seq(repro.bench.Table2Harness.ChocolateQ,
      repro.bench.Table2Harness.TitleQ,
      repro.bench.Table2Harness.DobQ).foreach { src =>
      val q = KokoParser.parse(src)
      assert(q.outputs.nonEmpty)
    }
  }

  test("the cafe quality query parses for both variants") {
    Seq(true, false).foreach { d =>
      val q = KokoParser.parse(repro.bench.QualityHarness.cafeQuery(0.6, d))
      assert(q.satisfying.head.threshold == 0.6)
      assert(q.excluding.size == 2)
    }
  }

  test("unknown bare labels are rejected (words must be quoted)") {
    intercept[KokoParser.ParseError](
      KokoParser.parse("""extract x:Str from f if ( /ROOT:{ x = //happy } )"""))
  }

  test("unterminated string and trailing tokens are rejected") {
    intercept[KokoParser.ParseError](KokoParser.parse("""extract x:Str from f if () extra"""))
    intercept[KokoParser.ParseError](KokoParser.parse("""extract x:Str from "f if ()"""))
  }

  test("label classification: parse label wins over POS tag") {
    val q = KokoParser.parse("""extract x:Str from f if ( /ROOT:{ x = /root/dobj/det } )""")
    val NodeDef(_, p) = q.defs.head: @unchecked
    assert(p.steps(2).label == LParse("det"))
  }

  test("textTokens splits punctuation like the corpus tokenizer") {
    assert(KokoParser.textTokens(", a cafe") == Seq(",", "a", "cafe"))
    assert(KokoParser.textTokens("serves coffee") == Seq("serves", "coffee"))
    assert(KokoParser.textTokens("St. Paul") == Seq("St", ".", "Paul"))
  }

  private def rejects(src: String, bad: String): Unit = {
    val e = intercept[KokoParser.ParseError](KokoParser.parse(src))
    assert(e.getMessage.contains(bad), e.getMessage)
  }

  private def thresholdQ(th: String, weight: String = "1") =
    s"""extract x:Entity from f if () satisfying x (str(x) contains "A" {$weight}) with threshold $th"""

  test("a malformed number token is a ParseError naming it") {
    rejects(thresholdQ("1.2.3"), "1.2.3")
  }

  test("a threshold string that is not a number is a ParseError naming it") {
    rejects(thresholdQ("\"abc\""), "abc")
  }

  test("a weight string that is not a number is a ParseError naming it") {
    rejects(thresholdQ("0.5", weight = "\"w\""), "\"w\"")
  }

  test("an elastic min that is not a non-negative integer is a ParseError naming it") {
    rejects("""extract s:Str from f if ( /ROOT:{ v = //verb, s = v + ^[min="a"] } )""", "\"a\"")
  }

  test("an elastic regex that does not compile is a ParseError naming it") {
    rejects("""extract s:Str from f if ( /ROOT:{ v = //verb, s = v + ^[regex="["] } )""", "\"[\"")
  }

  test("a step regex that does not compile is a ParseError naming it") {
    rejects("""extract x:Str from f if ( /ROOT:{ x = //verb[regex="("] } )""", "\"(\"")
  }

  test("a matches regex that does not compile is a ParseError naming it") {
    rejects("""extract x:Entity from f if () satisfying x (str(x) matches "[")""", "\"[\"")
  }

  test("an unknown dictionary is a ParseError naming it") {
    rejects(thresholdQ("0.5") + """ excluding (str(x) in dict("Locations"))""", "\"Locations\"")
  }

  /** Keywords, names, labels, symbols, quoted strings and numbers of the
    * grammar, well-formed or not.
    */
  private val grammarTokens: IndexedSeq[String] = IndexedSeq(
    "extract", "from", "if", "satisfying", "excluding", "with", "threshold", "or", "str",
    "contains", "mentions", "matches", "near", "similarTo", "in", "dict", "eq", "ROOT", "subtree",
    "x", "v", "b", "Entity", "Person", "Str", "verb", "dobj", "propn", "det", "happy",
    "etype", "regex", "min", "max", "pos", "text", "label",
    "(", ")", "{", "}", "[", "]", "[[", "]]", "/", "//", ":", ",", "=", "+", "^", ".", "@", "*", "~", "\"",
    "\"a\"", "\"Cafe\"", "\"serves coffee\"", "\"[\"", "\"(\"", "\"abc\"", "\"1\"", "\"-1\"",
    "\"0.5\"", "\"\"", "\"Entity\"", "\"[A-Z].*\"",
    "0", "1", "0.5", "1.2.3", "2.", "99999999999")

  private val validQueries: IndexedSeq[String] = IndexedSeq(
    """extract e:Entity, d:Str from "input.txt" if (
      | /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
      | (b) in (e) )""".stripMargin,
    """extract s:Str from f if (
      | /ROOT:{ v = //verb[regex="[a-z]+"], s = ^[etype="Entity", min="1", max="3"] + v + ^[regex="[A-Z].*"] } )
      |satisfying s (s near "cake" {0.5}) with threshold "0.3"""".stripMargin,
    repro.bench.Table2Harness.ChocolateQ,
    repro.bench.Table2Harness.TitleQ,
    repro.bench.QualityHarness.cafeQuery(0.6, withDescriptors = true))

  private val lexeme = """"[^"]*"|//|\[\[|\]\]|[A-Za-z_][A-Za-z0-9_]*|[0-9.]+|\S""".r

  test("any string of grammar tokens either parses and normalizes or throws ParseError (scalacheck)") {
    validQueries.foreach(q => Normalizer.normalize(KokoParser.parse(q))) // the edits start from valid queries
    val tokenSoup = Gen.choose(1, 30).flatMap(n => Gen.listOfN(n, Gen.oneOf(grammarTokens)))
    val oneEdit = for {
      q <- Gen.oneOf(validQueries)
      toks = lexeme.findAllIn(q).toIndexedSeq
      i <- Gen.choose(0, toks.size - 1)
      tok <- Gen.oneOf(grammarTokens)
      edited <- Gen.oneOf(toks.patch(i, Nil, 1), toks.patch(i, Seq(tok), 1), toks.patch(i, Seq(tok), 0))
    } yield edited
    val prop = Prop.forAllNoShrink(Gen.oneOf(tokenSoup, oneEdit).map(_.mkString(" "))) { src =>
      Try(Normalizer.normalize(KokoParser.parse(src))) match {
        case Success(_) | Failure(_: KokoParser.ParseError) => true
        case Failure(_) => false
      }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10000).withInitialSeed(17L), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
