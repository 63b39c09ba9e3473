package repro.core

import repro.nlp.{Sent, Tok, TreeOps}

/** Exact evaluation of an absolute path expression against a dependency
  * tree — the validation the paper performs in the skip-plan stage
  * ("these checks are necessary since the bindings obtained by evaluating
  * the indices with decomposed paths may still contain false answers").
  */
object PathMatcher {
  import Ast._

  def stepMatches(st: Step, tok: Tok): Boolean = {
    val labOk = st.label match {
      case LStar => true
      case LParse(l) => tok.label == l
      case LPos(p) => tok.pos == p
      case LWord(w) => tok.word == w
    }
    labOk && st.conds.forall { c =>
      c.attr match {
        case "pos" => tok.pos == c.value
        case "text" => tok.word == c.value
        case "etype" => tok.etype == c.value
        case "label" => tok.label == c.value
        case "regex" => tok.word.matches(c.value)
        case _ => true // min/max only apply to elastic spans
      }
    }
  }

  /** Match path axes against a root-to-target chain of `n` nodes, token or
    * dataguide label; `ok(i, j)` says whether step `i` holds at node `j`. A
    * child step consumes the next node; a descendant step skips ≥0 nodes
    * first. The last step must consume the target itself.
    */
  def matchesChain(axes: IndexedSeq[Axis], n: Int)(ok: (Int, Int) => Boolean): Boolean = {
    val ns = axes.size
    // memo over (step idx, chain idx)
    val memo = Array.fill(ns + 1, n + 1)(0: Byte) // 0 unknown, 1 true, 2 false
    def m(i: Int, j: Int): Boolean = {
      if (i == ns) return j == n
      if (j >= n) return false
      if (memo(i)(j) != 0) return memo(i)(j) == 1
      val r = axes(i) match {
        case Child => ok(i, j) && m(i + 1, j + 1)
        case Desc => (j until n).exists(k => ok(i, k) && m(i + 1, k + 1))
      }
      memo(i)(j) = if (r) 1 else 2
      r
    }
    m(0, 0)
  }

  /** True iff token `tid` of `s` satisfies the absolute path. */
  def matches(path: PathExpr, s: Sent, tid: Int): Boolean = {
    require(path.isAbsolute, "PathMatcher requires absolute paths")
    val steps = path.steps.toIndexedSeq
    val chain = TreeOps.chainTo(s.toks, tid).toIndexedSeq
    matchesChain(steps.map(_.axis), chain.size)((i, j) => stepMatches(steps(i), s.toks(chain(j))))
  }

  /** All tokens of `s` satisfying the absolute path. */
  def candidates(path: PathExpr, s: Sent): Seq[Int] =
    s.toks.indices.filter(matches(path, s, _))
}
