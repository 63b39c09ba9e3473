package repro.core

import java.util.regex.Pattern
import repro.nlp.{Sent, Tok}

/** Exact evaluation of an absolute path expression against a dependency
  * tree — the validation the paper performs in the skip-plan stage
  * ("these checks are necessary since the bindings obtained by evaluating
  * the indices with decomposed paths may still contain false answers").
  */
object PathMatcher {
  import Ast._

  /** The most steps a path may have: [[matchesChain]] keeps one bit per step. */
  val MaxSteps = 63

  /** One step's label and conditions, its regexes compiled once. */
  private final class StepTest(st: Step) {
    private val regexes = st.conds.collect { case StepCond("regex", re) => Pattern.compile(re) }

    def apply(tok: Tok): Boolean = {
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
          case _ => true // regex below; min/max only apply to elastic spans
        }
      } && regexes.forall(_.matcher(tok.word).matches())
    }
  }

  /** Match path axes against a root-to-target chain of `n` nodes, token or
    * dataguide label; `ok(i, j)` says whether step `i` holds at node `j`. A
    * child step consumes the next node; a descendant step skips ≥0 nodes
    * first. The last step must consume the target itself. One pass down
    * the chain keeps, as bit `i` of a mask, "steps `0 until i` matched the
    * nodes so far".
    */
  def matchesChain(axes: IndexedSeq[Axis], n: Int)(ok: (Int, Int) => Boolean): Boolean =
    matchesChain(descMask(axes), axes.size, n, ok)

  /** Bit `i` set iff step `i` has the descendant axis. */
  private def descMask(axes: Seq[Axis]): Long = {
    require(axes.size <= MaxSteps, s"a path has at most $MaxSteps steps")
    axes.zipWithIndex.foldLeft(0L) { case (m, (a, i)) => if (a == Desc) m | (1L << i) else m }
  }

  private def matchesChain(desc: Long, ns: Int, n: Int, ok: (Int, Int) => Boolean): Boolean = {
    var states = 1L
    var j = 0
    while (j < n && states != 0) {
      var next = 0L
      var i = 0
      while (i < ns) {
        if ((states & (1L << i)) != 0) {
          next |= desc & (1L << i)
          if (ok(i, j)) next |= 1L << (i + 1)
        }
        i += 1
      }
      states = next
      j += 1
    }
    (states & (1L << ns)) != 0
  }

  /** An absolute path compiled once: its axes and step tests. */
  final class Compiled(path: PathExpr) {
    require(path.isAbsolute, "PathMatcher requires absolute paths")
    private val desc = descMask(path.steps.map(_.axis))
    private val tests = path.steps.map(new StepTest(_)).toArray

    /** True iff token `tid` of `s` satisfies the path. */
    def matches(s: Sent, tid: Int): Boolean = {
      var n = 0
      var cur = tid
      while (cur >= 0) { n += 1; cur = s.toks(cur).head }
      val chain = new Array[Int](n)
      cur = tid
      while (cur >= 0) { n -= 1; chain(n) = cur; cur = s.toks(cur).head }
      matchesChain(desc, tests.length, chain.length, (i, j) => tests(i)(s.toks(chain(j))))
    }
  }

  /** True iff token `tid` of `s` satisfies the absolute path. */
  def matches(path: PathExpr, s: Sent, tid: Int): Boolean = new Compiled(path).matches(s, tid)

  /** All tokens of `s` satisfying the absolute path. */
  def candidates(path: PathExpr, s: Sent): Seq[Int] = {
    val m = new Compiled(path)
    s.toks.indices.filter(m.matches(s, _))
  }
}
