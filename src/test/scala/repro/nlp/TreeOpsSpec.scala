package repro.nlp

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures

class TreeOpsSpec extends AnyFunSuite {
  import Fixtures._

  private val fig1Meta = TreeOps.meta(fig1.toks)
  private val annaMeta = TreeOps.meta(anna.toks)

  test("fig1: root is 'ate' with subtree 0-16 and depth 0 (paper Ex. 3.2)") {
    val ate = fig1.toks(1)
    assert(ate.word == "ate" && ate.head == -1)
    assert(fig1Meta.lo(1) == 0 && fig1Meta.hi(1) == 16 && fig1Meta.depth(1) == 0)
  }

  test("fig1: 'cream' quintuple is (0,5,2-9,1) (paper Ex. 3.2)") {
    assert(fig1.toks(5).word == "cream")
    assert(fig1Meta.lo(5) == 2 && fig1Meta.hi(5) == 9 && fig1Meta.depth(5) == 1)
  }

  test("fig1: 'delicious' quintuple is (0,9,9-9,3) (paper Ex. 3.2)") {
    assert(fig1.toks(9).word == "delicious")
    assert(fig1Meta.lo(9) == 9 && fig1Meta.hi(9) == 9 && fig1Meta.depth(9) == 3)
  }

  test("fig1: 'I' quintuple is (0,0,0-0,1) (paper Ex. 3.2)") {
    assert(fig1.toks.head.word == "I")
    assert(fig1Meta.lo(0) == 0 && fig1Meta.hi(0) == 0 && fig1Meta.depth(0) == 1)
  }

  test("anna: 'ate' quintuple is (1,1,0-12,0) (paper Ex. 3.2)") {
    assert(anna.toks(1).word == "ate")
    assert(annaMeta.lo(1) == 0 && annaMeta.hi(1) == 12 && annaMeta.depth(1) == 0)
  }

  test("anna: 'cheesecake' subtree is 2-11 at depth 1 (paper Ex. 3.3 dobj)") {
    assert(anna.toks(4).word == "cheesecake")
    assert(annaMeta.lo(4) == 2 && annaMeta.hi(4) == 11 && annaMeta.depth(4) == 1)
  }

  test("anna: 'delicious' quintuple is (1,3,3-3,2) (paper Ex. 3.2)") {
    assert(anna.toks(3).word == "delicious")
    assert(annaMeta.lo(3) == 3 && annaMeta.hi(3) == 3 && annaMeta.depth(3) == 2)
  }

  test("plPath of fig1 'chocolate'/'ice' is /root/dobj/nn (paper Ex. 3.3)") {
    assert(fig1Meta.plPath(3) == "/root/dobj/nn")
    assert(fig1Meta.plPath(4) == "/root/dobj/nn")
  }

  test("plPath of anna 'some' and fig1 'a' is /root/dobj/det (paper Ex. 3.3)") {
    assert(annaMeta.plPath(2) == "/root/dobj/det")
    assert(fig1Meta.plPath(2) == "/root/dobj/det")
  }

  test("plPath of nsubj tokens is /root/nsubj (paper Ex. 3.3)") {
    assert(annaMeta.plPath(0) == "/root/nsubj")
    assert(fig1Meta.plPath(0) == "/root/nsubj")
  }

  test("parent-child quintuple condition of Section 3 holds exactly for head pairs") {
    for (s <- both) {
      val m = TreeOps.meta(s.toks)
      for (p <- s.toks; c <- s.toks if p.tid != c.tid) {
        val quintupleSaysParent =
          m.lo(p.tid) <= m.lo(c.tid) && m.hi(p.tid) >= m.hi(c.tid) &&
            m.depth(p.tid) == m.depth(c.tid) - 1 &&
            m.lo(p.tid) <= c.tid && c.tid <= m.hi(p.tid)
        val isParent = c.head == p.tid
        if (isParent) assert(quintupleSaysParent, s"head pair (${p.word},${c.word}) not detected")
      }
    }
  }

  test("subtree interval contains exactly the descendants plus self") {
    for (s <- both) {
      val m = TreeOps.meta(s.toks)
      for (t <- s.toks) {
        val desc = s.toks.filter(o => o.tid == t.tid || TreeOps.isAncestorOf(s.toks, t.tid, o.tid)).map(_.tid)
        assert(desc.min == m.lo(t.tid) && desc.max == m.hi(t.tid))
        // projectivity of our templates: the subtree is contiguous
        assert(desc.sorted == (m.lo(t.tid) to m.hi(t.tid)).toList)
      }
    }
  }

  test("chainTo ends at the target and starts at the root") {
    for (s <- both; t <- s.toks) {
      val chain = TreeOps.chainTo(s.toks, t.tid)
      assert(chain.last == t.tid)
      assert(s.toks(chain.head).head == -1)
    }
  }

  test("validate rejects multiple roots, self-loops and cycles") {
    val t0 = Tok(0, "a", "noun", "root", -1, "", -1)
    val t1 = Tok(1, "b", "noun", "dobj", 0, "", -1)
    assert(TreeOps.validate(Seq(t0, t1)).isRight)
    assert(TreeOps.validate(Seq(t0.copy(head = 0))).isLeft) // self loop
    assert(TreeOps.validate(Seq(t0, t1.copy(head = -1))).isLeft) // 2 roots
    val c0 = Tok(0, "a", "noun", "root", -1, "", -1)
    val c1 = Tok(1, "b", "noun", "x", 2, "", -1)
    val c2 = Tok(2, "c", "noun", "x", 1, "", -1)
    assert(TreeOps.validate(Seq(c0, c1, c2)).isLeft) // unreachable cycle
    Seq(t1.copy(label = "d/obj"), t1.copy(label = ""), t1.copy(pos = "N/A"), t1.copy(pos = "")).foreach { t =>
      assert(TreeOps.validate(Seq(t0, t)).isLeft, t) // empty or holding the root paths' "/"
    }
  }

  test("entityMentions: fig1 has chocolate-ice-cream and pie mentions") {
    val ms = TreeOps.entityMentions(fig1)
    assert(ms.exists(m => m.text == "chocolate ice cream" && m.lo == 3 && m.hi == 5))
    assert(ms.exists(m => m.lo == 15 && m.hi == 15))
  }

  test("entityMentions: anna has cheesecake and grocery store (paper Ex. 3.2 entity index)") {
    val ms = TreeOps.entityMentions(anna)
    assert(ms.exists(m => m.text == "cheesecake" && m.lo == 4 && m.hi == 4))
    assert(ms.exists(m => m.text == "grocery store" && m.lo == 10 && m.hi == 11))
  }

  test("validate rejects an entity mention with mixed etypes or split into runs") {
    val t0 = Tok(0, "Blue", "propn", "root", -1, "Org", 0)
    val t1 = Tok(1, "Bottle", "propn", "dobj", 0, "Org", 0)
    assert(TreeOps.validate(Seq(t0, t1)).isRight)
    assert(TreeOps.mentionRanges(2, Seq(t0, t1)(_).eid) == Seq(0 -> 1))
    val mixed = TreeOps.validate(Seq(t0, t1.copy(etype = "Person")))
    assert(mixed == Left("entity 0 at 0..1 has etypes Org, Person"))
    val t2 = Tok(2, ".", "punct", "punct", 0, "", -1)
    val split = TreeOps.validate(Seq(t0, t2.copy(tid = 1), t1.copy(tid = 2)))
    assert(split == Left("entity 0 is split into runs 0..0, 2..2"))
  }

  test("meta is consistent on random corpus docs") {
    (0L until 120L).foreach { d =>
      val sents = CorpusGen.docOf(Seq("happy", "wiki", "cafe")((d % 3).toInt), d, 11)
      sents.foreach { s =>
        assert(TreeOps.validate(s.toks).isRight)
        val m = TreeOps.meta(s.toks)
        s.toks.foreach { t =>
          assert(m.lo(t.tid) <= t.tid && t.tid <= m.hi(t.tid))
          assert(m.plPath(t.tid).nonEmpty && m.posPath(t.tid).nonEmpty)
        }
      }
    }
  }
}
