package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.KokoEngine
import repro.index.Indexes
import repro.nlp.CorpusGen

/** Cafe-name extraction quality (Figures 3/5 analog): precision / recall
  * / F1 of the Appendix-A-style cafe query over the cafe-blog corpus with
  * planted ground truth, swept over the `with threshold` value, with and
  * without descriptor conditions.
  */
object QualityHarness {

  /** The cafe query adapted to our corpus (Appendix A / Figure 9). */
  def cafeQuery(threshold: Double, withDescriptors: Boolean): String = {
    val base = Seq(
      """(str(x) contains "Cafe" {1})""",
      """(str(x) contains "Roasters" {1})""",
      """(x ", a cafe" {1})""")
    val desc = Seq(
      """(x [["serves coffee"]] {0.5})""",
      """(x [["employs baristas"]] {0.5})""",
      """([["coffee menu"]] x {0.5})""")
    val conds = (base ++ (if (withDescriptors) desc else Nil)).mkString(" or\n ")
    s"""extract x:Entity from "cafe" if ()
       |satisfying x
       | $conds
       |with threshold $threshold
       |excluding (str(x) in dict("Location")) or
       | (str(x) matches "[Ss]ynesso|[Aa]eropress|[Ll]a Marzocco")""".stripMargin
  }

  final case class Row(variant: String, threshold: Double, precision: Double, recall: Double, f1: Double)

  def run(spark: SparkSession, nDocs: Long, thresholds: Seq[Double], seed: Long = 42): Seq[Row] = {
    val corpus = CorpusGen.corpus(spark, "cafe", nDocs, seed)
    val built = Indexes.build(spark, corpus)
    val truth = (0L until nDocs).map(d => d -> CorpusGen.cafeNameOf(d, seed)).toMap
    val rows = for {
      variant <- Seq("koko", "noDescriptors")
      th <- thresholds
    } yield {
      val r = KokoEngine.run(spark, cafeQuery(th, variant == "koko"), built)
      val predicted = r.rows.map(row => (row.doc, row.vals("x"))).toSet
      val tp = predicted.count { case (d, n) => truth(d) == n }
      val p = if (predicted.isEmpty) 1.0 else tp.toDouble / predicted.size
      val rec = tp.toDouble / nDocs
      val f1 = if (p + rec == 0) 0.0 else 2 * p * rec / (p + rec)
      Row(variant, th, p, rec, f1)
    }
    built.unpersist()
    rows
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append("Cafe-name extraction (Fig 3/5 analog)\n")
    sb.append(f"${"variant"}%-14s ${"thresh"}%7s ${"precision"}%10s ${"recall"}%8s ${"F1"}%8s\n")
    rows.foreach(r =>
      sb.append(f"${r.variant}%-14s ${r.threshold}%7.2f ${r.precision}%10.3f ${r.recall}%8.3f ${r.f1}%8.3f\n"))
    sb.toString
  }
}
