package repro.nlp

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.util.Random

/** Deterministic synthetic corpora standing in for the paper's datasets
  * (HappyDB, Wikipedia, BARISTAMAG/SPRUDGE cafe blogs) — see DESIGN.md §2.
  *
  * Generation is pure per `(kind, doc, seed)`, so ground truth (e.g. the
  * planted cafe name of a blog post) can be re-derived without storing it.
  */
object CorpusGen {

  /** Upper bound on sentences per document; global sid = doc * this + k. */
  val MaxSentsPerDoc = 64

  def gsid(doc: Long, k: Int): Long = doc * MaxSentsPerDoc + k

  private def rngFor(kind: String, doc: Long, seed: Long): Random =
    new Random(seed * 1000003L + doc * 7919L + kind.hashCode)

  private def sent(doc: Long, k: Int, ts: Seq[Templates.T]): Sent =
    Sent(doc, gsid(doc, k), Templates.mk(ts))

  /** HappyDB-like: one short sentence per document. */
  def happyDoc(doc: Long, seed: Long): Seq[Sent] = {
    val rng = rngFor("happy", doc, seed)
    val ts = rng.nextInt(4) match {
      case 0 => Templates.happyMoment(rng)
      case 1 => Templates.happyShort(rng)
      case 2 => Templates.foodSimple(rng)
      case _ => Templates.annaLike(rng)
    }
    Seq(sent(doc, 0, ts))
  }

  /** Wikipedia-like article: 4–10 sentences; plants DateOfBirth facts in
    * ~75% of articles, "called"-titles in ~10%, chocolate types in ~0.8%
    * — the paper's three selectivity regimes (>70%, ~10%, <1%).
    */
  def wikiDoc(doc: Long, seed: Long): Seq[Sent] = {
    val rng = rngFor("wiki", doc, seed)
    val hasDob = rng.nextDouble() < 0.75
    val hasTitle = rng.nextDouble() < 0.10
    val hasChoc = rng.nextDouble() < 0.008
    val nFill = 4 + rng.nextInt(4)
    val planted =
      (if (hasDob) Seq(Templates.dob(rng)) else Nil) ++
      (if (hasTitle) Seq(Templates.titleCalled(rng)) else Nil) ++
      (if (hasChoc) Seq(Templates.chocType(rng)) else Nil)
    val fillers = Seq.fill(nFill) {
      rng.nextInt(5) match {
        case 0 => Templates.filler(rng)
        case 1 => Templates.movedTo(rng)
        case 2 => Templates.suchAs(rng, gpes = rng.nextBoolean())
        case 3 => Templates.fig1Like(rng)
        case _ => Templates.annaLike(rng)
      }
    }
    // Deterministic shuffle of planted + filler sentences.
    val all = rng.shuffle(planted ++ fillers)
    all.zipWithIndex.map { case (ts, k) => sent(doc, k, ts) }
  }

  /** A blog post's cafe name: the first two draws of its generator. */
  private def cafeName(rng: Random): (String, String) =
    (Vocab.CafeFirst(rng.nextInt(Vocab.CafeFirst.size)), Vocab.CafeSecond(rng.nextInt(Vocab.CafeSecond.size)))

  /** The planted cafe name of blog post `doc` (ground truth for quality benches). */
  def cafeNameOf(doc: Long, seed: Long): String = {
    val (f, s) = cafeName(rngFor("cafe", doc, seed))
    s"$f $s"
  }

  /** Cafe-blog-like document: several weak signals about one cafe plus
    * systematic distractors (locations, machine brands).
    */
  def cafeDoc(doc: Long, seed: Long): Seq[Sent] = {
    val rng = rngFor("cafe", doc, seed)
    val name = cafeName(rng)
    val signals = rng.shuffle(Seq[Random => Seq[Templates.T]](
      r => Templates.cafeServes(r, name),
      r => Templates.cafeAppos(r, name),
      r => Templates.cafeBarista(r, name),
      r => Templates.cafeMenu(r, name))).take(2 + rng.nextInt(3))
    val noise = Seq.fill(2 + rng.nextInt(3)) {
      rng.nextInt(4) match {
        case 0 => Templates.cityCoffee(rng)
        case 1 => Templates.machineBrand(rng)
        case 2 =>
          // near-miss distractor: a bakery/deli with cafe-like evidence
          val bn = (Vocab.CafeFirst(rng.nextInt(Vocab.CafeFirst.size)),
                    Vocab.BakerySecond(rng.nextInt(Vocab.BakerySecond.size)))
          Templates.bakerySells(rng, bn)
        case _ => Templates.happyShort(rng)
      }
    }
    val all = rng.shuffle(signals.map(f => f(rng)) ++ noise)
    all.zipWithIndex.map { case (ts, k) => sent(doc, k, ts) }
  }

  /** Pure per-document generation, dispatched by kind. */
  def docOf(kind: String, doc: Long, seed: Long): Seq[Sent] = kind match {
    case "happy" => happyDoc(doc, seed)
    case "wiki" => wikiDoc(doc, seed)
    case "cafe" => cafeDoc(doc, seed)
    case other => throw new IllegalArgumentException(s"unknown corpus kind: $other")
  }

  /** Distributed corpus generation. */
  def corpus(spark: SparkSession, kind: String, nDocs: Long, seed: Long = 42): Dataset[Sent] = {
    import spark.implicits._
    spark.range(nDocs).flatMap(d => docOf(kind, d, seed))
  }
}
