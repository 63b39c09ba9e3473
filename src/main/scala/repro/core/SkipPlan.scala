package repro.core

/** Generate Skip Plan (§4.3, Algorithm 2).
  *
  * For each horizontal condition (a span definition `x = e₁ + ... + e_m`),
  * the cost of each atom is estimated — `t(t+1)/2` for an elastic span,
  * `|bindings[v][sid = s]|` otherwise — and atoms are greedily selected
  * for skipping in descending cost order, provided neither neighbour has
  * already been skipped (a missing neighbour counts as not skipped).
  * Skipped atoms are later aligned from their neighbours' bindings.
  */
object SkipPlan {
  import Ast._

  /** Cost of evaluating one atom in a sentence with `t` tokens. */
  def cost(atom: Atom, t: Int, candCount: Atom => Int): Double = atom match {
    case _: AElastic => t * (t + 1) / 2.0
    case _: AVar | _: ASubtree => 1.0
    case a => candCount(a).toDouble
  }

  /** Indices of atoms to skip for one span definition. */
  def plan(atoms: Seq[Atom], t: Int, candCount: Atom => Int): Set[Int] = {
    val skip = plan(atoms.map(cost(_, t, candCount)).toArray)
    skip.indices.filter(skip).toSet
  }

  /** Which atoms to skip, given their costs in order: `skip(i)` for atom `i`. */
  def plan(costs: Array[Double]): Array[Boolean] = {
    val m = costs.length
    val skip = new Array[Boolean](m)
    if (m <= 1) return skip
    // Atom indices by descending cost, ties by index (the sort is stable).
    val order = Array.range(0, m).sortBy(i => -costs(i))
    order.foreach { i =>
      if ((i == 0 || !skip(i - 1)) && (i == m - 1 || !skip(i + 1))) skip(i) = true
    }
    skip
  }
}
