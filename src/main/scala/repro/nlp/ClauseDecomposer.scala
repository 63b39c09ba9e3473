package repro.nlp

/** Sentence decomposition into canonical clauses (§4.4.1(b)).
  *
  * The paper applies the clause-segmentation stage of an OpenIE-style
  * decomposer [2, 42]: a sentence is split into canonical clauses so
  * descriptor matching sums signals over individual clauses rather than
  * fighting noise from the whole sentence.
  *
  * Here a clause is headed by the root verb or by any verb attached as
  * `conj` / `rcmod` / `xcomp` / `advcl`; its token set is the head's
  * subtree minus the subtrees of nested clause heads. Each clause carries
  * the score l_j = 1.0 (the paper leaves l_j abstract).
  */
object ClauseDecomposer {

  final case class Clause(tids: Vector[Int], score: Double)

  private val ClauseLabels = Set("conj", "rcmod", "xcomp", "advcl")

  def clauses(s: Sent, meta: TreeOps.Meta): Seq[Clause] = {
    val heads = s.toks.filter { t =>
      t.head < 0 || (ClauseLabels.contains(t.label) && (t.pos == "verb" || t.pos == "aux"))
    }.map(_.tid)
    if (heads.isEmpty) return Seq(Clause(s.toks.map(_.tid).toVector, 1.0))
    heads.map { h =>
      // Tokens in h's subtree not claimed by a nested clause head.
      val nested = heads.filter(o => o != h && meta.lo(h) <= o && o <= meta.hi(h) &&
        TreeOps.isAncestorOf(s.toks, h, o))
      val tids = (meta.lo(h) to meta.hi(h)).filter { t =>
        (t == h || TreeOps.isAncestorOf(s.toks, h, t)) &&
        !nested.exists(o => o == t || TreeOps.isAncestorOf(s.toks, o, t))
      }.toVector
      Clause(tids, 1.0)
    }.filter(_.tids.nonEmpty)
  }
}
