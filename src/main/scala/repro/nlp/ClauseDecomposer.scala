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
  * subtree minus the subtrees of nested clause heads, i.e. the tokens whose
  * nearest clause head on their chain to the root (the token itself
  * included) is that head. Clauses come in head order, each with its tokens
  * ascending, and carry the score l_j = 1.0 (the paper leaves l_j abstract).
  */
object ClauseDecomposer {

  final case class Clause(tids: Vector[Int], score: Double)

  private val ClauseLabels = Set("conj", "rcmod", "xcomp", "advcl")

  def clauses(s: Sent): Seq[Clause] = {
    val n = s.t
    val toks = s.toks
    // slot(t): the index of t's clause among the heads, -1 until known.
    val slot = Array.fill(n)(-1)
    var nHeads = 0
    toks.foreach { t =>
      if (t.head < 0 || (ClauseLabels.contains(t.label) && (t.pos == "verb" || t.pos == "aux"))) {
        slot(t.tid) = nHeads
        nHeads += 1
      }
    }
    if (nHeads == 0) return Seq(Clause(Vector.range(0, n), 1.0))
    def slotOf(t: Int): Int = {
      if (slot(t) < 0) slot(t) = slotOf(toks(t).head)
      slot(t)
    }
    val tids = Array.fill(nHeads)(Vector.newBuilder[Int])
    (0 until n).foreach(t => tids(slotOf(t)) += t)
    tids.map(b => Clause(b.result(), 1.0)).toSeq
  }
}
