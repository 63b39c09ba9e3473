package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.{SparkException, TaskContext, TestListenerBus}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.Dataset
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.bench.{QualityHarness, SyntheticQueries, Table2Harness}
import repro.index.Indexes
import repro.nlp.{CorpusGen, Sent, Templates}
import scala.util.Random

class KokoEngineSpec extends AnyFunSuite with SparkSpec {

  /** Rows as a multiset, scores included, so any row order compares equal. */
  private def canon(rows: Seq[Aggregator.OutRow]): Map[Aggregator.OutRow, Int] =
    rows.groupMapReduce(identity)(_ => 1)(_ + _)

  private def engineEqualsNaive(kind: String, nDocs: Long, seed: Long, query: String): Unit =
    engineEqualsNaive(CorpusGen.corpus(spark, kind, nDocs, seed), query)

  private def engineEqualsNaive(corpus: Dataset[Sent], query: String): Unit = {
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    val engine = KokoEngine.run(spark, query, built)
    val naive = NaiveKoko.runQuery(query, sents)
    assert(canon(engine.rows) == canon(naive),
      s"engine=${engine.rows.size} naive=${naive.size} for query:\n$query")
    built.unpersist()
  }

  test("engine equals naive: DateOfBirth query on wiki corpus") {
    engineEqualsNaive("wiki", 40, 3, Table2Harness.DobQ)
  }

  test("engine equals naive: Title query on wiki corpus") {
    engineEqualsNaive("wiki", 60, 4, Table2Harness.TitleQ)
  }

  test("engine equals naive: Chocolate query on wiki corpus") {
    engineEqualsNaive("wiki", 150, 5, Table2Harness.ChocolateQ)
  }

  test("engine equals naive: cafe query with satisfying + excluding") {
    engineEqualsNaive("cafe", 25, 6, QualityHarness.cafeQuery(0.6, withDescriptors = true))
  }

  test("engine equals naive: Example 2.1 on the happy corpus") {
    engineEqualsNaive("happy", 60, 7,
      """extract e:Entity, d:Str from f if (
        | /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
        | (b) in (e) )""".stripMargin)
  }

  test("engine equals naive: cafe query on a corpus whose documents span input partitions") {
    val corpus = CorpusGen.corpus(spark, "cafe", 25, 6).repartition(3)
    val docsPerPartition = corpus.rdd.glom().collect().map(_.map(_.doc).toSet)
    assert(docsPerPartition.combinations(2).exists(p => p(0).intersect(p(1)).nonEmpty))
    engineEqualsNaive(corpus, QualityHarness.cafeQuery(0.6, withDescriptors = true))
  }

  test("path word steps match exactly, span word atoms ignore case; engine equals naive") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 60, 4)
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    val exactPath = Table2Harness.TitleQ.replace("//\"called\"", "//\"Called\"")
    val spanWord =
      """extract a:Person, b:Str from "wiki" if (
        | /ROOT:{ p = //verb/propn, b = p.subtree, c = a + ^ + "CALLED" + ^ + b } )""".stripMargin
    val exact = KokoEngine.run(spark, exactPath, built).rows
    val span = KokoEngine.run(spark, spanWord, built).rows
    assert(exact.isEmpty && NaiveKoko.runQuery(exactPath, sents).isEmpty)
    assert(span.nonEmpty)
    assert(canon(span) == canon(NaiveKoko.runQuery(spanWord, sents)))
    built.unpersist()
  }

  /** Spark jobs started and shuffle bytes read or written while `body` runs. */
  private def sparkWork(body: => Unit): (Int, Long) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger
    val shuffleBytes = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = Option(e.taskMetrics).foreach { m =>
        shuffleBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten)
      }
    }
    TestListenerBus.drain(sc)
    sc.addSparkListener(listener)
    try body
    finally {
      TestListenerBus.drain(sc)
      sc.removeSparkListener(listener)
    }
    (jobs.get, shuffleBytes.get)
  }

  test("a query is one Spark job with no shuffle (Title on wiki, cafe)") {
    Seq(
      ("wiki", Table2Harness.TitleQ),
      ("cafe", QualityHarness.cafeQuery(0.6, withDescriptors = true))).foreach { case (kind, q) =>
      val built = Indexes.build(spark, CorpusGen.corpus(spark, kind, 40, 14))
      var rows = 0
      val (jobs, shuffleBytes) = sparkWork { rows = KokoEngine.run(spark, q, built).rows.size }
      assert(rows > 0, kind)
      assert(jobs == 1, s"$kind: $jobs jobs")
      assert(shuffleBytes == 0, s"$kind: $shuffleBytes shuffle bytes")
      built.unpersist()
    }
  }

  test("a named task function that cannot be serialized fails as Task not serializable, naming its field") {
    val sc = spark.sparkContext
    val e = intercept[SparkException](sc.runJob(sc.parallelize(1 to 2, 2),
      new KokoEngineSpec.LockedTask(new Object), Seq(0, 1), (_: Int, _: Int) => ()))
    assert(e.getMessage.contains("Task not serializable"), e.getMessage)
    assert(e.getMessage.contains("name: lock"), e.getMessage)
  }

  test("DateOfBirth results bind person and date from planted facts") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 50, 8)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.DobQ, built)
    assert(r.rows.nonEmpty)
    r.rows.foreach { row =>
      assert(row.vals("b").matches("\\d{4}"), s"date value ${row.vals("b")}")
      assert(row.scores("v") == 1.0) // str(v) ~ "born" with weight 1
    }
    // every result sentence contains the word "born"
    val sids = r.rows.map(_.sid).toSet
    val sents = corpus.collect().filter(s => sids.contains(s.sid))
    assert(sents.forall(_.toks.exists(_.word == "born")))
    built.unpersist()
  }

  test("Title results pair the person with the nickname after 'called'") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 80, 9)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.TitleQ, built)
    assert(r.rows.nonEmpty)
    r.rows.foreach { row =>
      assert(repro.nlp.Vocab.Nicknames.contains(row.vals("b")), row.vals.toString)
    }
    built.unpersist()
  }

  test("Chocolate query extracts the chocolate-type entity (low selectivity)") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 400, 10)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.ChocolateQ, built)
    r.rows.foreach(row => assert(row.vals("c").endsWith("chocolate")))
    // planted at ~0.8%: expect at least one but far fewer than 10% of docs
    assert(r.rows.nonEmpty)
    assert(r.rows.map(_.doc).distinct.size < 40)
    built.unpersist()
  }

  test("Example 2.2: similarTo separates cities from countries end-to-end") {
    import spark.implicits._
    val s1 = Sent(0, 0, Templates.mk(Templates.suchAs(new Random(1), gpes = false))) // countries
    val s2 = Sent(1, 64, Templates.mk(Templates.suchAs(new Random(1), gpes = true))) // cities
    val built = Indexes.build(spark, spark.createDataset(Seq(s1, s2)))
    val q1 = """extract a:GPE from "input" if () satisfying a (a SimilarTo "city" {1.0})"""
    val q2 = """extract a:GPE from "input" if () satisfying a (a SimilarTo "country" {1.0})"""
    val r1 = KokoEngine.run(spark, q1, built)
    val r2 = KokoEngine.run(spark, q2, built)
    // Q1 only returns the city sentence's GPEs; Q2 only the country ones
    assert(r1.rows.nonEmpty && r1.rows.forall(_.doc == 1))
    assert(r2.rows.nonEmpty && r2.rows.forall(_.doc == 0))
    r1.rows.foreach(r => assert(r.scores("a") > 0.3 && r.scores("a") < 0.5))
    r2.rows.foreach(r => assert(r.scores("a") > 0.4))
    built.unpersist()
  }

  test("timings are populated and non-negative") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 20, 11)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.DobQ, built)
    val t = r.timings
    Seq(t.normalize, t.dpli, t.load, t.gsp, t.extract, t.satisfying).foreach(x => assert(x >= 0))
    assert(t.total > 0)
    built.unpersist()
  }

  test("empty extract clause considers all sentences (§4.3)") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "cafe", 10, 12)
    val built = Indexes.build(spark, corpus)
    val nq = Normalizer.normalize(KokoParser.parse(
      QualityHarness.cafeQuery(0.6, withDescriptors = true)))
    assert(KokoEngine.candidateSids(built, nq).isEmpty == false || nq.freeEnts.nonEmpty)
    val r = KokoEngine.run(spark, QualityHarness.cafeQuery(0.6, withDescriptors = true), built)
    assert(r.nCandidateSents > 0)
    built.unpersist()
  }

  test("candidate pruning is complete w.r.t. naive matching sentences") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 50, 13)
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    Seq(Table2Harness.ChocolateQ, Table2Harness.TitleQ, Table2Harness.DobQ).foreach { q =>
      val nq = Normalizer.normalize(KokoParser.parse(q))
      val cands = KokoEngine.candidateSids(built, nq) match {
        case Some(df) => df.collect().map(_.getLong(0)).toSet
        case None => sents.map(_.sid).toSet
      }
      val truth = NaiveKoko.matchingSids(nq, sents)
      assert(truth.subsetOf(cands), s"pruning dropped ${truth.diff(cands).size} true sentences")
    }
    built.unpersist()
  }

  test("stage counts: documents aggregated and values scored equal a NaiveKoko replay (cafe)") {
    val corpus = CorpusGen.corpus(spark, "cafe", 25, 6)
    val built = Indexes.build(spark, corpus)
    val q = QualityHarness.cafeQuery(0.6, withDescriptors = true)
    val r = KokoEngine.run(spark, q, built)
    val nq = Normalizer.normalize(KokoParser.parse(q))
    val tuples = corpus.collect().toSeq.flatMap(SentenceEvaluator.extract(nq, _))
    val values = tuples.flatMap(c => nq.satisfying.map(sat => (c.doc, sat.v, c.vals(sat.v)))).distinct
    assert(r.nCandidateTuples == tuples.size)
    assert(r.nDocsAggregated == tuples.map(_.doc).distinct.size)
    assert(r.nValuesScored == values.size)
    assert(r.nValuesScored > r.nDocsAggregated && r.nDocsAggregated > 0)
    built.unpersist()
  }

  test("sentences loaded: the candidates without a satisfying clause, the whole corpus on the cafe query") {
    val wiki = Indexes.build(spark, CorpusGen.corpus(spark, "wiki", 40, 3))
    val title = KokoEngine.run(spark, Table2Harness.TitleQ, wiki)
    assert(title.nCandidateSents > 0 && title.nSentsLoaded == title.nCandidateSents)
    wiki.unpersist()
    val corpus = CorpusGen.corpus(spark, "cafe", 25, 6)
    val cafe = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, QualityHarness.cafeQuery(0.6, withDescriptors = true), cafe)
    assert(r.nSentsLoaded == corpus.count())
    cafe.unpersist()
  }

  /** One condition on `v`, of any kind, over the corpus's own words,
    * rendered as KOKO text with a weight.
    */
  private def condText(v: String, sents: Seq[Sent]): Gen[String] = {
    val span = for {
      s <- Gen.oneOf(sents)
      lo <- Gen.choose(0, s.t - 1)
      n <- Gen.choose(1, 3)
    } yield s.toks.slice(lo, lo + n).map(_.word).filter(!_.contains('"')).mkString(" ")
    val text = Gen.oneOf(span, Gen.oneOf(", a cafe", "serves coffee", "coffee menu", "Cafe", "born"))
    val cond = Gen.oneOf(
      text.map(s => s"""str($v) contains "$s""""),
      text.map(s => s"""str($v) mentions "$s""""),
      Gen.oneOf("[A-Z].*", ".*[Cc]afe.*", "[Ss]ynesso|[Aa]eropress|[Ll]a Marzocco").map(re => s"""str($v) matches "$re""""),
      Gen.oneOf("Location", "CoffeeDrinks").map(d => s"""str($v) in dict("$d")"""),
      Gen.oneOf("city", "coffee", "born", "serves").map(w => s"""$v similarTo "$w""""),
      Gen.oneOf("city", "coffee", "born", "serves").map(w => s"""str($v) ~ "$w""""),
      text.map(s => s"""$v "$s""""),
      text.map(s => s""""$s" $v"""),
      text.map(s => s"""$v near "$s""""),
      text.map(s => s"""$v [["$s"]]"""),
      text.map(s => s"""[["$s"]] $v"""))
    for (c <- cond; w <- Gen.oneOf("0.25", "0.5", "1", "0.3")) yield s"($c {$w})"
  }

  test("engine equals naive on generated satisfying and excluding clauses over generated corpora (scalacheck)") {
    // Extract clauses with one satisfying variable (x) and a second one (v)
    // for excluding; the threshold is set to a score some row reaches, so
    // the >= boundary is exercised.
    val extracts = Seq(
      ("""extract x:Entity from "c" if ()""", "x"),
      ("""extract x:Entity from "c" if ( /ROOT:{ v = //verb } )""", "v"))
    val queries: Seq[Sent] => Gen[String] = sents => for {
      (extract, other) <- Gen.oneOf(extracts)
      nSat <- Gen.choose(1, 4)
      sat <- Gen.listOfN(nSat, condText("x", sents))
      nExcl <- Gen.choose(0, 2)
      excl <- Gen.listOfN(nExcl, Gen.oneOf("x", other).flatMap(condText(_, sents)))
    } yield s"$extract\nsatisfying x ${sat.mkString(" or ")}\nwith threshold THRESHOLD" +
      (if (excl.isEmpty) "" else s"\nexcluding ${excl.mkString(" or ")}")
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 1000L)
      nDocs <- Gen.choose(5L, 30L)
      parts <- Gen.choose(1, 3)
      sents = (0L until nDocs).flatMap(CorpusGen.docOf(kind, _, seed))
      qs <- Gen.listOfN(3, queries(sents))
    } yield (kind, seed, nDocs, parts, sents, qs)
    val prop = Prop.forAllNoShrink(cases) { case (kind, seed, nDocs, parts, sents, qs) =>
      val built = Indexes.build(spark, CorpusGen.corpus(spark, kind, nDocs, seed).repartition(parts))
      try Prop.all(qs.map { template =>
        val scores = NaiveKoko.runQuery(template.replace("THRESHOLD", "0"), sents).map(_.scores("x")).sorted
        val threshold = if (scores.isEmpty) 0.0 else scores(scores.size / 2)
        val q = template.replace("THRESHOLD", "\"" + threshold + "\"")
        val naive = NaiveKoko.runQuery(q, sents)
        val onBoundary = scores.isEmpty || naive.exists(_.scores("x") == threshold)
        (onBoundary && canon(KokoEngine.run(spark, q, built).rows) == canon(naive)) :|
          s"$kind seed $seed, $nDocs docs, $parts partitions:\n$q"
      }: _*)
      finally built.unpersist()
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10).withInitialSeed(29L), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("engine equals naive on generated tree and span queries over 1, 2 and 4 input partitions (scalacheck)") {
    // Every variable is an output, so rows compare on values, not only on
    // sentence ids; the queries are drawn from the corpus's own sentences.
    def withOutputs(q: Ast.KokoQuery): Ast.KokoQuery = q.copy(outputs = q.defs.map(d => Ast.OutVar(d.name, "Str")))
    val cases = for {
      kind <- Gen.oneOf("wiki", "happy")
      seed <- Gen.choose(0L, 10000L)
      nDocs <- Gen.choose(10L, 60L)
      parts <- Gen.oneOf(1, 2, 4)
      sents = (0L until nDocs).flatMap(CorpusGen.docOf(kind, _, seed))
      tree <- Gen.pick(4, SyntheticQueries.treeQueries(sents, 1, seed).map(tq => (tq.name, tq.query)))
      spans = Seq(1, 3, 5).flatMap(n => SyntheticQueries.spanQueries(sents, n, 1, seed).map(sq => (sq.name, sq.q)))
    } yield (kind, seed, nDocs, parts, sents, tree.toSeq ++ spans)
    val prop = Prop.forAllNoShrink(cases) { case (kind, seed, nDocs, parts, sents, qs) =>
      val corpus = CorpusGen.corpus(spark, kind, nDocs, seed).repartition(parts)
      val built = Indexes.build(spark, corpus)
      try Prop.all(qs.map { case (name, q) =>
        val naive = NaiveKoko.run(Normalizer.normalize(withOutputs(q)), sents)
        val engine = KokoEngine.run(spark, withOutputs(q), built, System.nanoTime())
        (built.shards.getNumPartitions == parts && naive.nonEmpty && canon(engine.rows) == canon(naive)) :|
          s"$kind seed $seed, $nDocs docs, $parts partitions, $name: engine ${engine.rows.size} rows, naive ${naive.size}\n$q"
      }: _*)
      finally built.unpersist()
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(12).withInitialSeed(31L), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}

object KokoEngineSpec {

  /** A task function, like the engine's `QueryTask`, with a field that
    * cannot be serialized.
    */
  final class LockedTask(val lock: Object) extends ((TaskContext, Iterator[Int]) => Int) with Serializable {
    def apply(ctx: TaskContext, it: Iterator[Int]): Int = it.size
  }
}
