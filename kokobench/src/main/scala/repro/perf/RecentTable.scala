package repro.perf

import com.fasterxml.jackson.databind.JsonNode
import java.io.File
import scala.jdk.CollectionConverters._

/** Regenerates the ROADMAP "Recent" table (one row per workload: wall time,
  * DPLI stage, Spark jobs, shuffle, single-threaded `NaiveKoko`) from traced
  * run records. Run from `kokobench/`:
  *
  * {{{ sbt "runMain repro.perf.RecentTable" }}}
  *
  * Without arguments it reads every record in `results/`.
  */
object RecentTable {

  def render(records: Seq[JsonNode]): String = {
    val sb = new StringBuilder
    sb.append("| workload | docs | wall (s) | DPLI (s) | Spark jobs | shuffle (MB) | `NaiveKoko` single-thread (s) |\n")
    sb.append("|---|---|---|---|---|---|---|\n")
    records.foreach { r =>
      val queries = r.get("queries").elements().asScala.toSeq
      def med(k: String): Double = KokoBench.median(queries.map(_.get(k).asDouble))
      val meta = r.get("meta")
      sb.append(f"| ${meta.get("workload").asText} | ${meta.get("articles").asLong} | " +
        f"${r.get("end_to_end").get("query_s.p50").get("value").asDouble}%.2f | " +
        f"${med("engine.stage.dpli_s")}%.2f | ${med("engine.jobs")}%.0f | " +
        f"${med("engine.shuffle_mb")}%.1f | ${med("naive.query_s")}%.2f |\n")
    }
    sb.toString
  }

  def main(args: Array[String]): Unit = {
    val files =
      if (args.nonEmpty) args.toSeq.map(new File(_))
      else Option(new File("results").listFiles).toSeq.flatten.filter(_.getName.endsWith(".json")).sortBy(_.getName)
    print(render(files.map(KokoBench.json.readTree)))
  }
}
