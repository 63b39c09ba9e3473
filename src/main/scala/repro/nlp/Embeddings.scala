package repro.nlp

/** Paraphrase-based word-embedding simulator.
  *
  * The paper uses counter-fitted paraphrase embeddings to (a) expand a
  * descriptor phrase into semantically close variants with scores, and
  * (b) score `similarTo` conditions. The engine only consumes
  * `sim(a, b) → [0,1]` and `expand(phrase) → {(phrase', k)}`, so a fixed
  * symmetric similarity table preserves all downstream behaviour while
  * making the aggregation math exactly reproducible (DESIGN.md §2).
  */
object Embeddings {

  /** Symmetric word-to-word paraphrase similarities (only > 0 entries). */
  private val pairs: Seq[(String, String, Double)] = Seq(
    // serve-verbs
    ("serves", "sells", 0.92), ("serves", "offers", 0.88),
    ("serves", "brews", 0.86), ("serves", "pours", 0.80),
    ("sells", "offers", 0.90), ("sells", "brews", 0.78),
    ("employs", "hired", 0.84), ("employs", "hires", 0.92),
    ("hired", "hires", 0.94),
    // coffee drinks (ontology-style cluster)
    ("coffee", "espresso", 0.90), ("coffee", "cappuccino", 0.86),
    ("coffee", "macchiato", 0.84), ("coffee", "latte", 0.83),
    ("coffee", "mocha", 0.80), ("espresso", "cappuccino", 0.82),
    ("espresso", "macchiato", 0.81), ("espresso", "latte", 0.79),
    ("barista", "baristas", 0.95), ("barista", "barman", 0.55),
    // menus
    ("menu", "selection", 0.72), ("menu", "list", 0.60),
    // is-a vocabulary for Example 2.2 (GPE instances vs concepts)
    ("city", "Tokyo", 0.41), ("city", "Beijing", 0.36),
    ("city", "Paris", 0.44), ("city", "London", 0.42),
    ("city", "Seattle", 0.40), ("city", "Portland", 0.39),
    ("city", "Oslo", 0.38), ("city", "Austin", 0.37),
    ("country", "China", 0.51), ("country", "Japan", 0.46),
    ("country", "France", 0.43), ("country", "Norway", 0.42),
    // cross-concept noise kept low so Q1/Q2 of Example 2.2 separate
    ("country", "Tokyo", 0.08), ("country", "Beijing", 0.09),
    ("city", "China", 0.10), ("city", "Japan", 0.09))

  private val table: Map[(String, String), Double] = {
    val m = Map.newBuilder[(String, String), Double]
    pairs.foreach { case (a, b, s) =>
      m += ((CaseFold(a), CaseFold(b)) -> s)
      m += ((CaseFold(b), CaseFold(a)) -> s)
    }
    m.result()
  }

  /** Similarity in [0,1]; 1.0 for equal words (case-insensitive, by [[CaseFold]]). */
  def sim(a: String, b: String): Double = {
    val (x, y) = (CaseFold(a), CaseFold(b))
    if (x == y) 1.0 else table.getOrElse((x, y), 0.0)
  }

  /** The least similarity of a paraphrase neighbour, and the variants kept
    * per expanded phrase ("descriptors now default to a fixed number of
    * expanded terms", §5).
    */
  private val MinSim = 0.5
  val TopK = 40

  /** Words similar to `w` (score ≥ [[MinSim]]), including `w` itself. */
  def neighbors(w: String): Seq[(String, Double)] = {
    val lw = CaseFold(w)
    val others = table.collect {
      case ((a, b), s) if a == lw && s >= MinSim => (b, s)
    }.toSeq
    ((lw, 1.0) +: others).distinct.sortBy(-_._2)
  }

  /** Expand a descriptor phrase into alternate forms with scores, as the
    * paper does before matching: each word may be replaced by a paraphrase
    * neighbour, with the variant score kᵢ equal to the product of per-word
    * scores. Capped to the [[TopK]] highest-scoring variants.
    */
  def expand(phrase: Seq[String]): Seq[(Seq[String], Double)] = {
    val variants = phrase.foldLeft(Seq(Vector.empty[String] -> 1.0)) { (acc, w) =>
      for ((pre, s) <- acc; (alt, as) <- neighbors(w)) yield (pre :+ alt, s * as)
    }
    variants
      .distinctBy(_._1)
      .sortBy { case (v, s) => (-s, v.mkString(" ")) }
      .take(TopK)
      .map { case (v, s) => (v: Seq[String], s) }
  }
}
