package repro.nlp

/** Tagsets, word pools and dictionaries used by the synthetic corpus and
  * the query language's label classification.
  */
object Vocab {

  /** Universal-style POS tags [33]. */
  val PosTags: Set[String] = Set(
    "verb", "noun", "adj", "adv", "propn", "pron", "det", "adp", "num",
    "cconj", "punct", "aux", "part", "x")

  /** Parse labels [28] produced by our templates. A bare label in a KOKO
    * path is resolved against this set first (so `det`, `punct`, `num`
    * read as parse labels, matching the paper's `/root/dobj/det` example).
    */
  val ParseLabels: Set[String] = Set(
    "root", "nsubj", "nsubjpass", "dobj", "pobj", "iobj", "det", "amod",
    "nn", "advmod", "prep", "punct", "conj", "cc", "rcmod", "xcomp",
    "acomp", "appos", "attr", "aux", "auxpass", "oprd", "num", "poss",
    "pcomp", "advcl")

  val Persons: Vector[String] = Vector(
    "Anna", "Bob", "Carol", "David", "Emma", "Frank", "Grace", "Henry",
    "Irene", "Jack", "Karen", "Leo", "Mona", "Nils", "Olga", "Paul")

  val Surnames: Vector[String] = Vector(
    "Smith", "Jones", "Brown", "Clark", "Davis", "Evans", "Adams", "Moore")

  val Nicknames: Vector[String] = Vector("Sid", "Bud", "Ace", "Rex", "Dot", "Kit")

  val Foods: Vector[String] = Vector(
    "cheesecake", "pie", "cake", "pudding", "tart", "cookie", "brownie",
    "waffle", "scone", "muffin")

  val Adjs: Vector[String] = Vector(
    "delicious", "salty", "tasty", "sweet", "fresh", "bitter", "warm",
    "crispy", "rich", "smooth")

  val EatVerbs: Vector[String] = Vector("ate", "bought", "baked", "ordered", "tasted", "shared")

  val Drinks: Vector[String] = Vector(
    "coffee", "espresso", "cappuccino", "macchiato", "latte", "mocha")

  val ServeVerbs: Vector[String] = Vector("serves", "sells", "offers", "brews", "pours")

  val Cities: Vector[String] = Vector(
    "Portland", "Seattle", "Tokyo", "Beijing", "Paris", "London", "Oslo", "Austin")

  val Countries: Vector[String] = Vector("China", "Japan", "France", "Norway")

  /** Two-token cafe names; first token also doubles as a brand pool. */
  val CafeFirst: Vector[String] = Vector(
    "Blue", "Ritual", "Bean", "Java", "Drip", "Roast", "Velvet", "Copper",
    "Maple", "Harbor", "Cedar", "Summit")

  val CafeSecond: Vector[String] = Vector(
    "Bottle", "Roasters", "House", "Works", "Collective", "Cafe", "Union",
    "Supply", "Mill", "Lab")

  /** Non-cafe food businesses — near-miss distractors for the quality
    * bench (they also "sell espresso" but are not in the ground truth).
    */
  val BakerySecond: Vector[String] = Vector("Bakery", "Patisserie", "Deli", "Diner")

  val ChocBrands: Vector[String] = Vector("Baking", "Couverture", "Gianduja", "Ruby")

  val Nouns: Vector[String] = Vector(
    "garden", "book", "team", "river", "museum", "market", "bridge", "castle")

  val HappyVerbs: Vector[String] = Vector("finished", "cleaned", "painted", "fixed", "planted", "visited")

  /** Named dictionaries for the `dict(...)` condition (Appendix A), case-folded by [[CaseFold]]. */
  val Dicts: Map[String, Set[String]] = Map(
    "Location" -> (Cities ++ Countries).map(CaseFold(_)).toSet,
    "CoffeeDrinks" -> Drinks.map(CaseFold(_)).toSet)
}
