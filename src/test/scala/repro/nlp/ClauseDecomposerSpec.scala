package repro.nlp

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

class ClauseDecomposerSpec extends AnyFunSuite {
  import Fixtures._

  test("fig1 decomposes into main clause + rcmod clause + conj clause") {
    val cs = ClauseDecomposer.clauses(fig1)
    assert(cs.size == 3)
  }

  test("fig1 rcmod clause contains 'which was delicious' only") {
    val cs = ClauseDecomposer.clauses(fig1)
    val rc = cs.find(_.tids.contains(9)).get
    assert(rc.tids.map(fig1.toks(_).word) == Vector("which", "was", "delicious"))
  }

  test("fig1 conj clause contains the second 'ate a pie'") {
    val cs = ClauseDecomposer.clauses(fig1)
    val cj = cs.find(_.tids.contains(13)).get
    assert(cj.tids.map(fig1.toks(_).word) == Vector("also", "ate", "a", "pie"))
  }

  test("main clause excludes nested clause tokens") {
    val cs = ClauseDecomposer.clauses(fig1)
    val main = cs.find(_.tids.contains(1)).get
    assert(!main.tids.contains(9)) // delicious is in the rcmod clause
    assert(!main.tids.contains(13)) // second ate is in the conj clause
    assert(main.tids.contains(5)) // cream stays in the main clause
  }

  test("clauses partition: each token belongs to at most one clause") {
    for (s <- both) {
      val cs = ClauseDecomposer.clauses(s)
      val all = cs.flatMap(_.tids)
      assert(all.distinct.size == all.size)
    }
  }

  test("a sentence with no clause verbs yields one whole-sentence clause") {
    val toks = Templates.mk(Templates.suchAs(new scala.util.Random(1), gpes = true))
    val s = Sent(9, 9, toks)
    val cs = ClauseDecomposer.clauses(s)
    assert(cs.size == 1 && cs.head.tids.size == s.t)
  }

  test("every clause has positive score") {
    for (s <- both) {
      val cs = ClauseDecomposer.clauses(s)
      cs.foreach(c => assert(c.score > 0))
    }
  }

  /** The clause definition written out: each head's subtree minus the
    * subtrees of the clause heads nested in it, heads in `tid` order.
    */
  private def subtreeMinusNested(s: Sent): Seq[ClauseDecomposer.Clause] = {
    val meta = TreeOps.meta(s.toks)
    val heads = s.toks.filter { t =>
      t.head < 0 || (Set("conj", "rcmod", "xcomp", "advcl").contains(t.label) && (t.pos == "verb" || t.pos == "aux"))
    }.map(_.tid)
    if (heads.isEmpty) return Seq(ClauseDecomposer.Clause(s.toks.map(_.tid).toVector, 1.0))
    heads.map { h =>
      val nested = heads.filter(o => o != h && meta.lo(h) <= o && o <= meta.hi(h) &&
        TreeOps.isAncestorOf(s.toks, h, o))
      val tids = (meta.lo(h) to meta.hi(h)).filter { t =>
        (t == h || TreeOps.isAncestorOf(s.toks, h, t)) &&
        !nested.exists(o => o == t || TreeOps.isAncestorOf(s.toks, o, t))
      }.toVector
      ClauseDecomposer.Clause(tids, 1.0)
    }.filter(_.tids.nonEmpty)
  }

  test("one-pass clauses equal subtree-minus-nested-heads on every corpus kind (scalacheck)") {
    val docs = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 10000L)
      doc <- Gen.choose(0L, 500L)
    } yield (kind, seed, doc)
    val prop = Prop.forAllNoShrink(docs) { case (kind, seed, doc) =>
      Prop.all(CorpusGen.docOf(kind, doc, seed).map { s =>
        (ClauseDecomposer.clauses(s) == subtreeMinusNested(s)) :| s"$kind seed $seed doc $doc: ${s.text}"
      }: _*)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(31L), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
