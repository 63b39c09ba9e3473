package repro.core

/** Path decomposition (§4.2.1): dominant-path detection and the split of
  * a dominant path into a parse-label path, a POS-tag path, and a word
  * path — each used to access one index (Example 4.2).
  */
object PathDecomposer {
  import Ast._

  /** The three decomposed patterns of a path with `nSteps` steps. `pl` and
    * `pos` are `(axis, label)` steps with label `*` where the step does not
    * pin one; they are matched against the dataguides. `words`
    * holds `(stepIdx, word)` for every step that pins a word; depth gaps
    * between consecutive words follow from the step indices (each step
    * descends at least one level, so the paper's `l₂ ≥ l₁ + 2` for
    * the Example 4.4 word path ate-wildcard-delicious is `gap = 2 - 0`).
    */
  final case class Decomposed(
      pl: Seq[(Axis, String)],
      pos: Seq[(Axis, String)],
      words: Seq[(Int, String)],
      nSteps: Int) {
    def lastIsWord: Boolean = words.nonEmpty && words.last._1 == nSteps - 1
  }

  def stepPl(s: Step): String = s.label match {
    case LParse(l) => l
    case _ => s.conds.find(_.attr == "label").map(_.value).getOrElse("*")
  }

  def stepPos(s: Step): String = s.label match {
    case LPos(p) => p
    case _ => s.conds.find(_.attr == "pos").map(_.value).getOrElse("*")
  }

  def stepWord(s: Step): Option[String] = s.label match {
    case LWord(w) => Some(w)
    case _ => s.conds.find(_.attr == "text").map(_.value)
  }

  def decompose(p: PathExpr): Decomposed = {
    require(p.isAbsolute, "decompose requires absolute paths")
    val pl = p.steps.map(s => s.axis -> stepPl(s))
    val pos = p.steps.map(s => s.axis -> stepPos(s))
    val words = p.steps.zipWithIndex.flatMap { case (s, i) => stepWord(s).map(i -> _) }
    Decomposed(pl, pos, words, p.steps.size)
  }

  private def stepKey(s: Step): (Axis, LabelSpec, Set[StepCond]) =
    (s.axis, s.label, s.conds.toSet)

  /** `p` is dominated by `q` iff p's steps are a proper-or-equal prefix of
    * q's with identical labels and conditions (modulo conjunction order).
    */
  def dominatedBy(p: PathExpr, q: PathExpr): Boolean =
    p.steps.size <= q.steps.size &&
      p.steps.zip(q.steps).forall { case (a, b) => stepKey(a) == stepKey(b) }

  /** For each named path, the name of the variable whose path is its
    * dominant path (itself if not dominated). Only dominant paths are
    * decomposed for index lookup (Algorithm 1).
    */
  def dominantOf(paths: Seq[(String, PathExpr)]): Map[String, String] =
    paths.map { case (name, p) =>
      val dom = paths
        .filter { case (_, q) => dominatedBy(p, q) }
        .maxBy { case (_, q) => q.steps.size }
      name -> dom._1
    }.toMap
}
