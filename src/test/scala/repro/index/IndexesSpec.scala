package repro.index

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TestListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Fixtures, Oracle, SparkSpec}
import repro.nlp.{CorpusGen, Sent, TreeOps}

class IndexesSpec extends AnyFunSuite with SparkSpec {
  import Fixtures._

  private lazy val built: Indexes.Built = {
    import spark.implicits._
    Indexes.build(spark, spark.createDataset(both))
  }

  test("word index holds the paper's Example 3.2 quintuples for 'ate'") {
    val rows = built.word.filter(col("word") === "ate")
      .select("sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4))).toSet
    assert(rows.contains((1L, 1, 0, 12, 0)))
    assert(rows.contains((0L, 1, 0, 16, 0)))
  }

  test("word index holds the Example 3.2 quintuples for 'delicious'") {
    val rows = built.word.filter(col("word") === "delicious")
      .select("sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4))).toSet
    assert(rows == Set((1L, 3, 3, 3, 2), (0L, 9, 9, 9, 3)))
  }

  test("word index holds the Example 3.2 quintuple for 'cream'") {
    val rows = built.word.filter(col("word") === "cream")
      .select("sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4))).toSet
    assert(rows == Set((0L, 5, 2, 9, 1)))
  }

  test("entity index holds the Example 3.2 triples") {
    val rows = built.entity.select("entity", "sid", "lo", "hi").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getInt(2), r.getInt(3))).toSet
    assert(rows.contains(("cheesecake", 1L, 4, 4)))
    assert(rows.contains(("grocery store", 1L, 10, 11)))
    assert(rows.contains(("chocolate ice cream", 0L, 3, 5)))
  }

  test("oracle: word-index lookup equals a DuckDB scan of the token table") {
    Oracle.assertEquivalent(
      built.word.filter(col("word") === "delicious").select("sid", "tid", "lo", "hi", "depth"),
      "SELECT sid, tid, lo, hi, depth FROM toks WHERE word = 'delicious'",
      "toks" -> built.tokens.select("word", "sid", "tid", "lo", "hi", "depth"))
  }

  test("oracle: Section-3 parent-child quintuple join equals the head relation") {
    val w = built.word.select("sid", "tid", "lo", "hi", "depth")
    val pairs = w.alias("p").join(w.alias("c"),
        col("p.sid") === col("c.sid") &&
          col("p.lo") <= col("c.lo") && col("p.hi") >= col("c.hi") &&
          col("p.depth") === col("c.depth") - 1 &&
          col("p.lo") <= col("c.tid") && col("c.tid") <= col("p.hi"))
      .select(col("p.sid").as("sid"), col("p.tid").as("ptid"), col("c.tid").as("ctid"))
    Oracle.assertEquivalent(
      pairs,
      "SELECT sid, head AS ptid, tid AS ctid FROM toks WHERE CAST(head AS INT) >= 0",
      "toks" -> built.tokens.select("sid", "tid", "head"))
  }

  test("oracle: entity index equals a DuckDB group-by over eids") {
    Oracle.assertEquivalent(
      built.entity.select("entity", "sid", "lo", "hi"),
      """SELECT string_agg(word, ' ' ORDER BY CAST(tid AS INT)) AS entity, sid,
        |       MIN(CAST(tid AS INT)) AS lo, MAX(CAST(tid AS INT)) AS hi
        |FROM toks WHERE CAST(eid AS INT) >= 0 GROUP BY sid, eid""".stripMargin,
      "toks" -> built.tokens.select("word", "sid", "tid", "eid"))
  }

  test("PL dataguide: posting of /root/dobj/nn merges 'chocolate' and 'ice' (Ex. 3.3)") {
    val node = built.plNodes.find(_.path == "/root/dobj/nn")
    assert(node.isDefined)
    val words = built.word.filter(col("plId") === node.get.id)
      .select("word").collect().map(_.getString(0)).toSet
    assert(words == Set("chocolate", "ice"))
  }

  test("PL dataguide: /root/dobj posting lists 'cheesecake' and 'cream' (Ex. 3.3)") {
    val node = built.plNodes.find(_.path == "/root/dobj").get
    val rows = built.word.filter(col("plId") === node.id)
      .select("word", "sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getInt(2), r.getInt(3), r.getInt(4), r.getInt(5))).toSet
    assert(rows == Set(("cheesecake", 1L, 4, 2, 11, 1), ("cream", 0L, 5, 2, 9, 1)))
  }

  test("dataguide nodes have unique paths and deterministic ids") {
    assert(built.plNodes.map(_.path).distinct.size == built.plNodes.size)
    assert(built.plNodes.map(_.id) == built.plNodes.indices)
    val again = {
      import spark.implicits._
      Indexes.build(spark, spark.createDataset(both))
    }
    assert(again.plNodes == built.plNodes)
  }

  test("oracle: PL closure table equals the path-prefix relation") {
    import spark.implicits._
    val nodes = built.plNodes.map(n => (n.id, n.path)).toDF("id", "path")
    Oracle.assertEquivalent(
      Indexes.closureDf(spark, built.plNodes).select("id", "aid"),
      "SELECT a.id AS id, b.id AS aid FROM nodes a JOIN nodes b " +
        "ON a.path = b.path OR a.path LIKE b.path || '/%'",
      "nodes" -> nodes)
  }

  test("closure table depths are consistent with labels") {
    val bad = Indexes.closureDf(spark, built.plNodes)
      .filter(col("adepth") > col("depth")).count()
    assert(bad == 0)
  }

  test("hierarchy index merges >95% of tree nodes on a real corpus") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 300, seed = 8)
    val b = Indexes.build(spark, corpus)
    val nTokens = b.tokens.count()
    val ratio = 1.0 - b.plNodes.size.toDouble / nTokens
    assert(ratio > 0.95, s"merge ratio $ratio (nodes=${b.plNodes.size}, tokens=$nTokens)")
    assert(1.0 - b.posNodes.size.toDouble / nTokens > 0.95)
    b.unpersist()
  }

  test("Built.unpersist frees every dataset that build cached") {
    // Spark holds cached RDDs weakly: other tests' unreferenced caches may
    // vanish meanwhile, so compare ids, not counts.
    def cached = spark.sparkContext.getPersistentRDDs.keySet
    val before = cached
    val b = Indexes.build(spark, CorpusGen.corpus(spark, "wiki", 20, seed = 9))
    b.entity.count()
    val added = cached -- before
    assert(added.nonEmpty)
    b.unpersist()
    assert(cached.intersect(added).isEmpty)
  }

  test("every token's plId/posId references an existing dataguide node") {
    val maxPl = built.plNodes.size
    val maxPos = built.posNodes.size
    val bad = built.tokens.filter(col("plId") >= maxPl || col("posId") >= maxPos || col("plId") < 0).count()
    assert(bad == 0)
  }

  test("the W view reports global dataguide ids on a corpus spread over 3 input partitions") {
    val b = Indexes.build(spark, CorpusGen.corpus(spark, "wiki", 60, seed = 12).repartition(3))
    assert(b.shards.getNumPartitions == 3)
    val plIds = b.plNodes.map(n => n.path -> n.id).toMap
    val posIds = b.posNodes.map(n => n.path -> n.id).toMap
    val want = b.sentences.collect().flatMap { s =>
      val m = TreeOps.meta(s.toks)
      s.toks.map(t => (s.sid, t.tid) -> (plIds(m.plPath(t.tid)), posIds(m.posPath(t.tid))))
    }.toMap
    val got = b.tokens.select("sid", "tid", "plId", "posId").collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> (r.getInt(2), r.getInt(3)))
    assert(got.length == want.size && got.toMap == want)
    b.unpersist()
  }

  test("build reads its input once: at most the shuffle-map job and one job that builds the shards") {
    val sc = spark.sparkContext
    val corpus = CorpusGen.corpus(spark, "wiki", 40, seed = 13)
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    val b =
      try Indexes.build(spark, corpus)
      finally {
        TestListenerBus.drain(sc)
        sc.removeSparkListener(listener)
      }
    assert(jobs.get <= 2, s"${jobs.get} jobs")
    assert(b.sentences.count() == corpus.count())
    b.unpersist()
  }

  test("build rejects a document of more than 64 sentences and duplicate sentence ids, naming the document") {
    import spark.implicits._
    val doc5 = CorpusGen.docOf("wiki", 5, 1)
    val tooMany = (0 to CorpusGen.MaxSentsPerDoc).map(k => doc5.head.copy(sid = CorpusGen.gsid(5, k)))
    val e1 = intercept[IllegalArgumentException](Indexes.build(spark, spark.createDataset(tooMany)))
    assert(e1.getMessage.startsWith("document 5:"), e1.getMessage)
    val e2 = intercept[IllegalArgumentException](Indexes.build(spark, spark.createDataset(doc5 :+ doc5.last)))
    assert(e2.getMessage == s"document 5: duplicate sentence id ${doc5.last.sid}")
  }

  test("build validates every tree: a bad head or a cycle fails, naming the sentence") {
    import spark.implicits._
    def rejected(s: Sent): String =
      intercept[IllegalArgumentException](Indexes.build(spark, spark.createDataset(Seq(s)))).getMessage
    val f = Fixtures.fig1
    val badHead = f.copy(toks = f.toks.updated(3, f.toks(3).copy(head = f.t)))
    assert(rejected(badHead).startsWith("sentence 0 (document 0): malformed tree: head out of range"))
    val a = Fixtures.anna
    val i = a.toks.indexWhere(t => t.head >= 0 && a.toks(t.head).head >= 0)
    val h = a.toks(i).head
    val cycle = a.copy(toks = a.toks.updated(h, a.toks(h).copy(head = i)))
    assert(rejected(cycle).startsWith("sentence 1 (document 0): malformed tree: unreachable tokens"))
    // a POS tag or parse label the dataguide's "/"-joined root paths cannot hold
    val t = f.toks(3)
    Seq(t.copy(label = "d/obj"), t.copy(label = ""), t.copy(pos = "N/A"), t.copy(pos = "")).foreach { bad =>
      val msg = rejected(f.copy(toks = f.toks.updated(3, bad)))
      assert(msg.startsWith("sentence 0 (document 0): malformed tree: POS tag") && msg.contains("at 3"), msg)
    }
  }

  test("build rejects an entity whose tokens are not one run, naming the sentence") {
    import spark.implicits._
    // anna's "grocery store" (tokens 10..11) with "store" untagged and "." tagged as "grocery"
    val a = Fixtures.anna
    val grocery = a.toks(10)
    val split = a.copy(toks = a.toks
      .updated(11, a.toks(11).copy(eid = -1, etype = ""))
      .updated(12, a.toks(12).copy(eid = grocery.eid, etype = grocery.etype)))
    val e = intercept[IllegalArgumentException](
      Indexes.build(spark, spark.createDataset(Seq(Fixtures.fig1, split))))
    assert(e.getMessage.startsWith("sentence 1 (document 0): malformed tree:"), e.getMessage)
  }
}
