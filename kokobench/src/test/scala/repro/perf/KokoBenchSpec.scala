package repro.perf

import java.nio.file.Files
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** The benchmark at a few hundred articles/documents: every named metric
  * is reported with its unit, and the correctness gate catches a single
  * altered output row.
  */
class KokoBenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark: SparkSession =
    KokoBench.session(Files.createTempDirectory("kokobench-spark"))

  override def afterAll(): Unit = spark.stop()

  private def tiny(name: String): Workload = {
    val w = Workloads.byName(name).get
    w.copy(docs = if (w.kind == "wiki") 300 else 200)
  }

  private def reported(r: Report): Set[(String, String)] =
    r.lines.filter(_.startsWith("metric ")).map { l =>
      val f = l.split(" ")
      (f(1), f(3))
    }.toSet

  for (name <- Workloads.all.map(_.name); trace <- Seq(false, true)) {
    test(s"$name trace=$trace reports every metric with its unit and passes the gate") {
      val r = KokoBench.run(spark, tiny(name), seed = 7, seconds = 1, trace = trace, sha = "test")
      assert(r.correct && r.failed == 0 && r.attempted >= 1)

      val expected = if (trace) KokoBench.PerLayer else KokoBench.EndToEnd
      assert(r.metrics.map { case (k, m) => k -> m.unit }.toSeq == expected)
      assert(r.metrics.values.forall(m => !m.value.isNaN && !m.value.isInfinite))

      // Printed, but not in `metrics`: zero on a healthy run, or cafe only.
      val extra = Seq("failed_frac" -> "ratio") ++
        (if (name == "cafe-evidence") Seq("f1" -> "ratio") else Nil)
      val lines = reported(r)
      (KokoBench.EndToEnd ++ extra ++ (if (trace) KokoBench.PerLayer else Nil)).foreach { m =>
        assert(lines.contains(m), s"metric line for $m")
      }

      val result = KokoBench.json.readTree(KokoBench.resultLine(r))
      assert(result.fieldNames().next() == "correct" && result.size() == 4)
      assert(result.get("metrics").size() == expected.size)

      if (trace) {
        val names = r.spans.map(_.name).toSet
        assert(Set("setup", "nlp", "index", "query", "normalize", "dpli", "engine", "evaluate",
          "aggregate", "naive").subsetOf(names))
        assert(r.spans.filter(_.name == "engine").forall(_.work.jobs > 0))
      }
    }
  }

  test("the correctness gate fails a call when one output row is altered") {
    val w = tiny("wiki-title")
    val s = KokoBench.setup(spark, w, seed = 7, tracer = None)
    val rot = new KokoBench.Rotation(w.rotation(7))
    val g = KokoBench.gate(spark, w, s, rot, _ => ())
    assert(g.passed.values.forall(identity))

    val text = w.rotation(7).head
    val ((doc, sid, vals, scores), n) = g.checked(text).head
    val altered = g.checked(text) - ((doc, sid, vals, scores)) ++
      Map((doc, sid, vals.map { case (k, v) => k -> (v + "!") }, scores) -> n)
    val checked = g.checked.updated(text, altered)
    val loop = KokoBench.timedLoop(spark, s.built, new KokoBench.Rotation(IndexedSeq(text)), checked,
      seconds = 0, _ => ())
    assert(loop.attempted == 1 && loop.failed == 1)

    val unaltered = KokoBench.timedLoop(spark, s.built, new KokoBench.Rotation(IndexedSeq(text)),
      g.checked, seconds = 0, _ => ())
    assert(unaltered.failed == 0)
  }

  test("query_s.tail is the interpolated p90, never below the median") {
    assert(math.abs(KokoBench.p90(Seq(1.0, 2, 3, 4, 5)) - 4.6) < 1e-9)
    assert(math.abs(KokoBench.p90(Seq(3.0, 1, 2, 10, 4, 5, 6, 7, 8, 9, 11, 12)) - 10.9) < 1e-9)
    assert(KokoBench.p90(Seq(2.5)) == 2.5)
    (1 to 30).foreach { n =>
      val xs = Seq.tabulate(n)(i => ((i * 7) % n).toDouble)
      assert(KokoBench.p90(xs) >= KokoBench.median(xs), s"n=$n")
    }
  }

  test("consecutive calls never send the same query text") {
    Workloads.all.foreach { w =>
      val rot = new KokoBench.Rotation(w.rotation(42))
      val sent = Seq.fill(3 * w.texts.size)(rot.next())
      assert(sent.sliding(2).forall { case Seq(a, b) => a != b })
      assert(sent.toSet == w.texts.toSet)
    }
  }
}
