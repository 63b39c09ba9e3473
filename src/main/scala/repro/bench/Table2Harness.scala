package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.KokoEngine
import repro.index.Indexes
import repro.nlp.CorpusGen

/** Table 2 — KOKO end-to-end execution time with per-stage breakdown
  * (Normalize / DPLI / LoadArticle / GSP / extract / satisfying) on the
  * Wikipedia-like corpus at increasing sizes, for the paper's three
  * example queries: Chocolate (low selectivity <1%), Title (~10%),
  * DateOfBirth (>70%).
  */
object Table2Harness {

  /** Analog of the paper's "Chocolate" query (our corpus attaches pobj
    * under the preposition, hence the descendant axis — DESIGN.md §2).
    */
  val ChocolateQ: String =
    """extract c:Entity from "wiki" if (
      | /ROOT:{ v = //verb, o = v//pobj[text="chocolate"], s = v/nsubj }
      | (s) in (c) )
      |satisfying v
      | (str(v) ~ "is" {1})
      |with threshold 0.5""".stripMargin

  /** Analog of the paper's "Title" query. */
  val TitleQ: String =
    """extract a:Person, b:Str from "wiki" if (
      | /ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b } )""".stripMargin

  /** Analog of the paper's "DateOfBirth" query. */
  val DobQ: String =
    """extract a:Person, b:Date from "wiki" if (
      | /ROOT:{ v = //verb } )
      |satisfying v
      | (str(v) ~ "born" {1})
      |with threshold 0.5""".stripMargin

  val Queries: Seq[(String, String)] =
    Seq(("C", ChocolateQ), ("T", TitleQ), ("D", DobQ))

  final case class Row(
      query: String,
      nDocs: Long,
      selectivity: Double,
      timings: KokoEngine.Timings,
      nResults: Long,
      nCandidateSents: Long)

  def run(spark: SparkSession, sizes: Seq[Long], seed: Long = 42): Seq[Row] = {
    sizes.flatMap { n =>
      val corpus = CorpusGen.corpus(spark, "wiki", n, seed)
      val built = Indexes.build(spark, corpus)
      val rows = Queries.map { case (nm, q) =>
        val r = KokoEngine.run(spark, q, built)
        val docsWithExtraction = r.rows.map(_.doc).distinct.size
        Row(nm, n, docsWithExtraction.toDouble / n, r.timings, r.rows.size, r.nCandidateSents)
      }
      built.unpersist()
      rows
    }
  }

  def render(rows: Seq[Row]): String = {
    val sb = new StringBuilder
    sb.append("Table 2 — Koko execution time (sec) per stage, wiki-like corpus\n")
    sb.append(f"${"q"}%-2s ${"#docs"}%8s ${"sel"}%6s ${"Normalize"}%10s ${"DPLI"}%8s ${"LoadArt"}%8s ${"GSP"}%8s ${"extract"}%8s ${"satisf"}%8s ${"total"}%8s ${"#rows"}%8s\n")
    rows.foreach { r =>
      val t = r.timings
      sb.append(f"${r.query}%-2s ${r.nDocs}%8d ${r.selectivity}%6.3f ${t.normalize}%10.3f ${t.dpli}%8.2f ${t.load}%8.2f ${t.gsp}%8.3f ${t.extract}%8.2f ${t.satisfying}%8.2f ${t.total}%8.2f ${r.nResults}%8d\n")
    }
    sb.toString
  }
}
