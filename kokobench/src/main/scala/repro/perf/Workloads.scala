package repro.perf

import repro.bench.{QualityHarness, Table2Harness}
import scala.util.Random

/** One benchmark workload: a corpus and the distinct query texts that the
  * closed loop rotates through.
  */
final case class Workload(name: String, kind: String, docs: Long, texts: Seq[String], why: String) {

  /** The texts in the order the loop sends them: a seed-derived
    * permutation, repeated. With at least two distinct texts no two
    * consecutive calls send the same text, so a result cache kept across
    * calls cannot pass for a speed-up.
    */
  def rotation(seed: Long): IndexedSeq[String] = new Random(seed).shuffle(texts.toIndexedSeq)
}

object Workloads {

  /** `Table2Harness.TitleQ` with its variables renamed. */
  def titleQ(a: String, b: String, v: String, p: String, c: String): String =
    s"""extract $a:Person, $b:Str from "wiki" if (
       | /ROOT:{ $v = //"called", $p = $v/propn, $b = $p.subtree, $c = $a + ^ + $v + ^ + $b } )""".stripMargin

  val TitleNames: Seq[(String, String, String, String, String)] = Seq(
    ("a", "b", "v", "p", "c"),
    ("x", "y", "w", "q", "z"))

  val CafeThresholds: Seq[Double] = Seq(0.2, 0.6)

  /** The threshold at which `cafe-evidence` reports F1. */
  val F1Threshold: Double = 0.6

  val all: Seq[Workload] = Seq(
    Workload("wiki-title", "wiki", 2000,
      TitleNames.map((titleQ _).tupled),
      "DPLI lookups and per-job Spark overhead dominate; ~10% selective, no satisfying clause; " +
        "the only workload with elastic spans, so the only one where SkipPlan works"),
    Workload("cafe-evidence", "cafe", 1000,
      CafeThresholds.map(QualityHarness.cafeQuery(_, withDescriptors = true)),
      "empty extract clause, so DPLI is one entity item and every sentence is a candidate; " +
        "per-document descriptor scoring in satisfying dominates; F1 checked against planted truth"))

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  require(titleQ("a", "b", "v", "p", "c") == Table2Harness.TitleQ,
    "the wiki-title template drifted from Table2Harness.TitleQ")
}
