package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.bench.SyntheticQueries
import repro.nlp.{CorpusGen, Sent, Templates, Tok}
import scala.util.Random

class SentenceEvaluatorSpec extends AnyFunSuite {
  import Fixtures._

  private def norm(src: String) = Normalizer.normalize(KokoParser.parse(src))

  private def evalVals(nq: Normalizer.NormQuery, s: Sent, gsp: Boolean = true): Set[Map[String, String]] =
    SentenceEvaluator.evaluate(nq, s, gsp)
      .map(b => b.map { case (k, v) => k -> SentenceEvaluator.valueOf(s, v) })
      .toSet

  test("Example 2.1 on the Figure 1 sentence returns exactly the paper's tuple") {
    val nq = norm(
      """extract e:Entity, d:Str from "input.txt" if (
        | /ROOT:{ a = //verb,
        | b = a/dobj,
        | c = b//"delicious",
        | d = (b.subtree) }
        | (b) in (e) )""".stripMargin)
    val res = evalVals(nq, fig1)
    assert(res.size == 1)
    val t = res.head
    assert(t("a") == "ate")
    assert(t("b") == "cream")
    assert(t("c") == "delicious")
    assert(t("d") == "a chocolate ice cream , which was delicious")
    assert(t("e") == "chocolate ice cream")
  }

  test("Example 2.1 on the Anna sentence binds d to the cheesecake subtree") {
    val nq = norm(
      """extract e:Entity, d:Str from f if (
        | /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
        | (b) in (e) )""".stripMargin)
    val res = evalVals(nq, anna)
    assert(res.size == 1)
    assert(res.head("d") == "some delicious cheesecake that she bought at a grocery store")
    assert(res.head("e") == "cheesecake")
  }

  test("derived parentOf constraint prunes non-child combinations") {
    // without the constraint, a=ate(13) b=cream(5) would be a candidate pair
    val nq = norm("""extract x:Entity from f if ( /ROOT:{ a = //verb, b = a/dobj } )""")
    val pairs = SentenceEvaluator.evaluate(nq, fig1, useGsp = true)
      .map(b => (b("a").tid, b("b").tid)).toSet
    assert(pairs.forall { case (a, b) => fig1.toks(b).head == a })
    assert(pairs == Set((1, 5), (13, 15)))
  }

  test("horizontal condition with two elastics (Example 4.1 shape)") {
    val s = Sent(5, 5, Templates.mk(Templates.titleCalled(new Random(3))))
    val nq = norm(
      """extract a:Person, b:Str from f if (
        | /ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b } )""".stripMargin)
    val res = evalVals(nq, s)
    // only the nickname (after "called") can bind b; the subject is left of v
    assert(res.size == 1)
    val t = res.head
    assert(t("v") == "called")
    assert(s.text.startsWith(t("a")))
    assert(t("c").contains("called"))
  }

  test("span variable spans are contiguous concatenations of their atoms") {
    val nq = norm("""extract x:Entity from f if ( /ROOT:{ v = //verb, s = v/dobj + ^ } )""")
    SentenceEvaluator.evaluate(nq, fig1, useGsp = true).foreach { b =>
      val s0 = b("s")
      val d = b.find(_._1 == "s").get._2
      assert(s0.lo == d.lo)
    }
  }

  test("eq constraint forces identical spans") {
    val nq = norm(
      """extract x:Entity from f if (
        | /ROOT:{ a = //dobj, s = "chocolate" + ^ }
        | (s) eq (x) )""".stripMargin)
    val res = evalVals(nq, fig1)
    res.foreach(t => assert(t("s") == t("x")))
    assert(res.nonEmpty)
    assert(res.forall(_("x") == "chocolate ice cream"))
  }

  test("elastic conditions: etype restricts the span to an entity mention") {
    val nq = norm(
      """extract q:Entity from f if ( /ROOT:{ s = //verb + ^[etype="Entity"] } )""")
    val res = SentenceEvaluator.evaluate(nq, fig1, useGsp = true)
    // verb immediately followed by an entity span: ate(13) "a"? no — needs
    // the entity right after the verb: ate(1)+? tid2 is 'a' (det) — no;
    // ate(13)+? tid14 'a' — no. So expect empty here.
    assert(res.isEmpty)
    val s2 = Sent(7, 7, Templates.mk(Templates.foodSimple(new Random(1))))
    // "<P> ate a <adj> <food>": no entity directly after the verb either
    assert(SentenceEvaluator.evaluate(nq, s2, useGsp = true).isEmpty)
  }

  test("elastic min/max length conditions") {
    val nq = norm(
      """extract q:Entity from f if ( /ROOT:{ s = "I" + ^[min="1", max="2"] + //dobj } )""")
    val res = SentenceEvaluator.evaluate(nq, fig1, useGsp = true)
    // I(0) + gap of 1-2 tokens + dobj: gap to cream(5) is 3 → only via
    // nothing; gap tokens between 0 and 5 are {1,2,3,4} → too long; none.
    assert(res.isEmpty)
    val nq2 = norm(
      """extract q:Entity from f if ( /ROOT:{ s = "I" + ^[min="1", max="4"] + //dobj } )""")
    val res2 = SentenceEvaluator.evaluate(nq2, fig1, useGsp = true)
    assert(res2.nonEmpty) // gap of 4 tokens reaches cream(5)
  }

  test("free entity variables enumerate typed mentions") {
    val s = Sent(8, 8, Templates.mk(Templates.dob(new Random(1))))
    val nq = norm("""extract a:Person, b:Date from f if ( /ROOT:{ v = //verb } )""")
    val res = evalVals(nq, s)
    assert(res.nonEmpty)
    res.foreach { t => assert(t.contains("a") && t.contains("b")) }
  }

  test("GSP and noGSP produce identical result sets (paper-shaped queries)") {
    val queries = Seq(
      """extract e:Entity, d:Str from f if (
        | /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
        | (b) in (e) )""".stripMargin,
      """extract a:Person, b:Str from f if (
        | /ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b } )""".stripMargin,
      """extract x:Entity from f if ( /ROOT:{ s = //verb + ^ + //noun } )""",
      """extract x:Entity from f if ( /ROOT:{ s = //nsubj + ^ + //verb + ^ + //dobj } )""")
    val sents = Fixtures.both ++
      (0L until 30L).flatMap(d => CorpusGen.docOf(Seq("happy", "wiki", "cafe")((d % 3).toInt), d, 23))
    for (q <- queries; s <- sents) {
      val nq = norm(q)
      val a = evalVals(nq, s, gsp = true)
      val b = evalVals(nq, s, gsp = false)
      assert(a == b, s"GSP/noGSP mismatch on '${s.text}' for query:\n$q")
    }
  }

  test("GSP and noGSP agree on 200 random SyntheticSpan queries") {
    val sents = (0L until 40L).flatMap(d => CorpusGen.docOf("wiki", d, 31))
    val rng = new Random(5)
    for (nAtoms <- Seq(1, 3, 5); sq <- SyntheticQueries.spanQueries(sents, nAtoms, 12, 77)) {
      val nq = Normalizer.normalize(sq.q)
      (0 until 4).foreach { _ =>
        val s = sents(rng.nextInt(sents.size))
        val a = evalVals(nq, s, gsp = true)
        val b = evalVals(nq, s, gsp = false)
        assert(a == b, s"mismatch for ${sq.name} on '${s.text}'")
      }
    }
  }

  test("GSP and noGSP bind the same spans with skipped atoms first, inside and last (scalacheck)") {
    // A node variable v and a span of 2-4 atoms over one generated sentence;
    // the skip plan may skip the span's first or last atom, not only an
    // interior elastic between two anchors.
    def atom(s: Sent): Gen[String] = {
      val tok = Gen.oneOf(s.toks)
      Gen.oneOf(
        Gen.const("^"),
        Gen.oneOf(Gen.const("""^[etype="Entity"]"""),
          for (lo <- Gen.choose(0, 3); w <- Gen.choose(0, 3)) yield s"""^[min="$lo", max="${lo + w}"]"""),
        tok.map(t => "\"" + t.word + "\""),
        tok.flatMap(t => Gen.oneOf(t.pos, t.label)).map("//" + _),
        Gen.const("v"),
        Gen.const("v.subtree"))
    }
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 1000L)
      doc <- Gen.choose(0L, 200L)
      s <- Gen.oneOf(CorpusGen.docOf(kind, doc, seed))
      vPos <- Gen.oneOf(s.toks).map(_.pos)
      n <- Gen.choose(2, 4)
      atoms <- Gen.listOfN(n, atom(s))
    } yield (s"""extract s:Str from f if ( /ROOT:{ v = //$vPos, s = ${atoms.mkString(" + ")} } )""", s)
    val prop = Prop.forAllNoShrink(cases) { case (q, s) =>
      val nq = norm(q)
      def spans(gsp: Boolean) =
        SentenceEvaluator.evaluate(nq, s, gsp).map(_.map { case (k, b) => k -> (b.lo, b.hi) }).toSet
      (spans(true) == spans(false)) :| s"$q on '${s.text}'"
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(11L), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("valueOf renders empty elastic spans as empty strings") {
    assert(SentenceEvaluator.valueOf(fig1, SentenceEvaluator.Binding(3, 2, -1)) == "")
    assert(SentenceEvaluator.valueOf(fig1, SentenceEvaluator.Binding(3, 5, -1)) == "chocolate ice cream")
  }

  test("a sentence just past the evaluator's work cap fails naming its sid; one just under evaluates") {
    // noGSP on x = ^ + ^ + "zzz" over t tokens without "zzz" enumerates the
    // first elastic's E candidates, the second's E per first, and no third:
    // E + E² candidates, with E = (t + 1)(t + 2) / 2 spans, empty ones included.
    def work(t: Long) = { val e = (t + 1) * (t + 2) / 2; e + e * e }
    val t = Iterator.from(1).find(t => work(t + 1L) > SentenceEvaluator.MaxWork).get
    def chain(n: Int, sid: Long) = Sent(sid / 64, sid, (0 until n).map(i => Tok(i, "w", "noun", "dep", i - 1, "", -1)))
    val nq = norm("""extract x:Str from f if ( /ROOT:{ x = ^ + ^ + "zzz" } )""")
    assert(SentenceEvaluator.evaluate(nq, chain(t, 321), useGsp = false).isEmpty)
    val e = intercept[IllegalArgumentException](SentenceEvaluator.evaluate(nq, chain(t + 1, 322), useGsp = false))
    assert(e.getMessage.contains("sentence 322"), e.getMessage)
  }
}
