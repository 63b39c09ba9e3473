package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Ast.{Axis, Child, Desc}
import repro.core.Dpli

/** Decomposed PL/POS patterns matched against a hierarchy-index dataguide
  * by [[Dpli.dataguideIds]], i.e. by [[repro.core.PathMatcher.matchesChain]]
  * over each node's root-path labels.
  */
class HierarchyIndexSpec extends AnyFunSuite {

  private val nodes = Seq(
    HierNode(0, "/root", "root", 0),
    HierNode(1, "/root/dobj", "dobj", 1),
    HierNode(2, "/root/dobj/det", "det", 2),
    HierNode(3, "/root/dobj/nn", "nn", 2),
    HierNode(4, "/root/dobj/rcmod", "rcmod", 2),
    HierNode(5, "/root/dobj/rcmod/acomp", "acomp", 3),
    HierNode(6, "/root/nsubj", "nsubj", 1))

  private def matchingIds(nodes: Seq[HierNode], pat: Seq[(Axis, String)]): Seq[Int] =
    Dpli.dataguideIds(nodes, pat).get.toSeq

  test("child-axis pattern matches exact paths only") {
    val ids = matchingIds(nodes, Seq(Child -> "root", Child -> "dobj"))
    assert(ids == Seq(1))
  }

  test("descendant-axis pattern matches at any depth") {
    val ids = matchingIds(nodes, Seq(Desc -> "dobj"))
    assert(ids == Seq(1))
    val acomp = matchingIds(nodes, Seq(Desc -> "acomp"))
    assert(acomp == Seq(5))
  }

  test("wildcard steps match any single label") {
    // the paper's Example 4.2 parse-label path: //*/dobj//*
    val ids = matchingIds(nodes, Seq(Desc -> "*", Child -> "dobj", Desc -> "*"))
    assert(ids.toSet == Set(2, 3, 4, 5))
  }

  test("descendant wildcard tail matches all strict descendants") {
    val ids = matchingIds(nodes, Seq(Child -> "root", Desc -> "*"))
    assert(ids.toSet == Set(1, 2, 3, 4, 5, 6))
  }

  test("leading child axis anchors at the root") {
    assert(matchingIds(nodes, Seq(Child -> "dobj")).isEmpty)
    assert(matchingIds(nodes, Seq(Child -> "root")) == Seq(0))
  }

  test("regex special characters in labels are quoted") {
    // labels are compared literally
    val weird = Seq(HierNode(0, "/a+b", "a+b", 0), HierNode(1, "/aab", "aab", 0))
    assert(matchingIds(weird, Seq(Child -> "a+b")) == Seq(0))
  }

  test("mixed axes: //dobj/rcmod//acomp") {
    val ids = matchingIds(nodes, Seq(Desc -> "dobj", Child -> "rcmod", Desc -> "acomp"))
    assert(ids == Seq(5))
  }

  test("no match returns empty") {
    assert(matchingIds(nodes, Seq(Desc -> "xcomp")).isEmpty)
  }
}
