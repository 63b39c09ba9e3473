package repro.core

import java.util.Locale
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.{Fixtures, Oracle, SparkSpec}
import repro.bench.SyntheticQueries
import repro.index.{Indexes, Shard}
import repro.nlp.{CaseFold, CorpusGen}

class DpliSpec extends AnyFunSuite with SparkSpec {
  import Fixtures._

  private lazy val built: Indexes.Built = {
    import spark.implicits._
    Indexes.build(spark, spark.createDataset(both))
  }

  private def path(src: String): Ast.PathExpr =
    Normalizer.normalize(KokoParser.parse(
      s"""extract x:Str from f if ( /ROOT:{ x = $src } )""")).nodeDefs.head.path

  /** The DataFrame form of [[repro.core.Dpli]]'s lookups these tests
    * check: a shard-level lookup run on every shard, its token ordinals as
    * `(sid, tid, lo, hi, depth)` rows.
    */
  private object Dpli {
    private def postings(b: Indexes.Built)(f: Shard => Array[Int]): org.apache.spark.sql.DataFrame = {
      import spark.implicits._
      b.shards.mapPartitions(_.flatMap { sh =>
        f(sh).iterator.map(o => (sh.sid(sh.sentOf(o)), sh.tid(o), sh.lo(o), sh.hi(o), sh.depth(o)))
      }).toDF("sid", "tid", "lo", "hi", "depth")
    }

    def lookup(b: Indexes.Built, dec: PathDecomposer.Decomposed): org.apache.spark.sql.DataFrame =
      postings(b)(repro.core.Dpli.lookup(_, dec))

    def lookupWordPath(b: Indexes.Built, words: Seq[(Int, String)]): Option[org.apache.spark.sql.DataFrame] =
      if (words.isEmpty) None else Some(postings(b)(repro.core.Dpli.lookupWordPath(_, words).get))
  }

  private def sids(df: org.apache.spark.sql.DataFrame): Set[(Long, Int)] =
    df.select("sid", "tid").collect().map(r => (r.getLong(0), r.getInt(1))).toSet

  test("Example 4.4: word-path join of ate//delicious with depth gap 2") {
    val d = PathDecomposer.decompose(path("""//"ate"/*//"delicious""""))
    val q = Dpli.lookupWordPath(built, d.words).get
    assert(sids(q) == Set((1L, 3), (0L, 9)))
  }

  test("oracle: the word-path join equals the equivalent DuckDB join") {
    val d = PathDecomposer.decompose(path("""//"ate"/*//"delicious""""))
    val q = Dpli.lookupWordPath(built, d.words).get
    Oracle.assertEquivalent(
      q.select("sid", "tid"),
      """SELECT b.sid AS sid, b.tid AS tid FROM toks a JOIN toks b
        |ON a.sid = b.sid AND a.word = 'ate' AND b.word = 'delicious'
        |AND CAST(a.lo AS INT) <= CAST(b.lo AS INT)
        |AND CAST(a.hi AS INT) >= CAST(b.hi AS INT)
        |AND CAST(b.depth AS INT) >= CAST(a.depth AS INT) + 2""".stripMargin,
      "toks" -> built.tokens.select("word", "sid", "tid", "lo", "hi", "depth"))
  }

  test("full lookup of Example 4.1's dominant path returns the two delicious tokens") {
    val res = Dpli.lookup(built, PathDecomposer.decompose(path("""//verb[text="ate"]/dobj//"delicious"""")))
    assert(sids(res) == Set((1L, 3), (0L, 9)))
  }

  test("PL-only path: /root/dobj via the hierarchy index") {
    val res = Dpli.lookup(built, PathDecomposer.decompose(path("/root/dobj")))
    assert(sids(res) == Set((0L, 5), (1L, 4)))
  }

  test("POS-only path: //verb returns every verb token") {
    val res = Dpli.lookup(built, PathDecomposer.decompose(path("//verb")))
    assert(sids(res) == Set((0L, 1), (0L, 8), (0L, 13), (1L, 1), (1L, 7)))
  }

  test("P1⋈P2: //verb/dobj joins PL and POS postings on the same token") {
    val res = Dpli.lookup(built, PathDecomposer.decompose(path("//verb/dobj")))
    // dobj tokens whose parent is a verb: cream(0,5), pie(0,15), cheesecake(1,4), that(1,5)
    assert(sids(res) == Set((0L, 5), (0L, 15), (1L, 4), (1L, 5)))
  }

  test("word then wildcard tail: descendants of 'cream' at depth ≥ +1") {
    val res = Dpli.lookup(built, PathDecomposer.decompose(path("""//"cream"//*""")))
    val got = sids(res)
    assert(got.forall(_._1 == 0L))
    // all strict descendants of cream (tid 5): 2,3,4,6,7,8,9
    assert(got.map(_._2) == Set(2, 3, 4, 6, 7, 8, 9))
  }

  test("nonexistent path yields an empty posting list (§4.2.2 Discussion)") {
    val res = Dpli.lookup(built, PathDecomposer.decompose(path("//xcomp")))
    assert(res.count() == 0)
  }

  test("resolve gives an all-wildcard side no dataguide ids: None, no pruning power") {
    def ids(dec: PathDecomposer.Decomposed) =
      (repro.core.Dpli.dataguideIds(built.plNodes, dec.pl), repro.core.Dpli.dataguideIds(built.posNodes, dec.pos))
    val (plOnlyPl, plOnlyPos) = ids(PathDecomposer.decompose(path("/root/dobj/det")))
    assert(plOnlyPl.exists(_.nonEmpty) && plOnlyPos.isEmpty)
    val (nonePl, nonePos) = ids(PathDecomposer.decompose(path("//*/*")))
    assert(nonePl.isEmpty && nonePos.isEmpty)
  }

  test("DPLI is complete on generated queries: candidateSids ⊇ NaiveKoko.matchingSids") {
    Seq("happy" -> 400L, "wiki" -> 80L).foreach { case (kind, nDocs) =>
      val corpus = CorpusGen.corpus(spark, kind, nDocs, seed = 23)
      val sents = corpus.collect().toSeq
      val b = Indexes.build(spark, corpus)
      val queries = SyntheticQueries.treeQueries(sents, 1, 23)
      assert(queries.nonEmpty)
      queries.foreach { tq =>
        val nq = Normalizer.normalize(tq.query)
        val truth = NaiveKoko.matchingSids(nq, sents)
        KokoEngine.candidateSids(b, nq).foreach { df =>
          val cands = df.collect().map(_.getLong(0)).toSet
          assert(truth.subsetOf(cands), s"$kind ${tq.name} (${tq.setting}): dropped ${truth.diff(cands).take(5)}")
        }
      }
      b.unpersist()
    }
  }

  test("DPLI is complete on generated queries over corpus kind, seed and size (scalacheck)") {
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 10000L)
      nDocs <- Gen.choose(5L, 120L)
      nParts <- Gen.choose(1, 4)
    } yield (kind, seed, nDocs, nParts)
    // Each shard matches paths against its own dataguides; spreading the
    // documents over more shards must not change any candidate.
    val prop = Prop.forAllNoShrink(cases) { case (kind, seed, nDocs, nParts) =>
      val corpus = CorpusGen.corpus(spark, kind, nDocs, seed)
      val sents = corpus.collect().toSeq
      val one = Indexes.build(spark, corpus.repartition(1))
      val b = Indexes.build(spark, corpus.repartition(nParts))
      val queries = SyntheticQueries.treeQueries(sents, 1, seed).map(tq => (tq.name, tq.query)) ++
        Seq(1, 3, 5).flatMap(n => SyntheticQueries.spanQueries(sents, n, 2, seed).map(sq => (sq.name, sq.q)))
      try Prop.all(queries.map { case (name, q) =>
        val nq = Normalizer.normalize(q)
        val truth = NaiveKoko.matchingSids(nq, sents)
        def cands(built: Indexes.Built) =
          KokoEngine.candidateSids(built, nq).fold(sents.map(_.sid).toSet)(_.collect().map(_.getLong(0)).toSet)
        val (got, onOne) = (cands(b), cands(one))
        (truth.nonEmpty && truth.subsetOf(got) && got == onOne) :|
          s"$kind seed $seed, $nDocs docs, $nParts partitions, $name: dropped ${truth.diff(got).take(5)}, " +
            s"${got.diff(onOne).size} more and ${onOne.diff(got).size} fewer than on 1 partition\n$q"
      }: _*)
      finally { b.unpersist(); one.unpersist() }
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10).withInitialSeed(37L), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("DPLI's bindings are complete at the token level over corpus kind, seed and size (scalacheck)") {
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 10000L)
      nDocs <- Gen.choose(5L, 120L)
    } yield (kind, seed, nDocs)
    // Every token PathMatcher accepts for a node variable in a candidate
    // sentence must be among the token ids DPLI hands the evaluator.
    val prop = Prop.forAllNoShrink(cases) { case (kind, seed, nDocs) =>
      val sents = (0L until nDocs).flatMap(CorpusGen.docOf(kind, _, seed)).sortBy(_.sid)
      val sh = Shard.build(sents.iterator)
      val queries = SyntheticQueries.treeQueries(sents, 1, seed).map(tq => (tq.name, tq.query)) ++
        Seq(1, 3, 5).flatMap(n => SyntheticQueries.spanQueries(sents, n, 2, seed).map(sq => (sq.name, sq.q)))
      Prop.all(queries.map { case (name, q) =>
        val nq = Normalizer.normalize(q)
        val bound = repro.core.Dpli.bind(sh, repro.core.Dpli.plan(nq))
        val missed = bound.toSeq.flatMap { b =>
          b.sents.iterator.zip(b.tokenIds(sh)).flatMap { case (s, tokens) =>
            val sent = sents(s)
            nq.nodeDefs.indices.flatMap { i =>
              PathMatcher.candidates(nq.nodeDefs(i).path, sent).filterNot(tokens(i).contains)
                .map(tid => (sent.sid, nq.nodeDefs(i).name, tid))
            }
          }
        }
        missed.isEmpty :| s"$kind seed $seed, $nDocs docs, $name: DPLI dropped ${missed.take(5)}\n$q"
      }: _*)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(10).withInitialSeed(43L), prop)
    assert(res.passed, Pretty.pretty(res))
  }

  test("Table 2's queries bind the same per sentence from DPLI's token ids as from every token (200 wiki docs)") {
    val sents = (0L until 200L).flatMap(CorpusGen.docOf("wiki", _, 42)).sortBy(_.sid)
    val sh = Shard.build(sents.iterator)
    repro.bench.Table2Harness.Queries.foreach { case (name, src) =>
      val nq = Normalizer.normalize(KokoParser.parse(src))
      val b = repro.core.Dpli.bind(sh, repro.core.Dpli.plan(nq)).get
      assert(b.sents.nonEmpty, name)
      var nBindings = 0
      b.sents.iterator.zip(b.tokenIds(sh)).foreach { case (s, tokens) =>
        val viaDpli = nq.evaluator.evaluate(sents(s), useGsp = true, Some(tokens))
        assert(viaDpli == SentenceEvaluator.evaluate(nq, sents(s), useGsp = true), s"$name, sentence ${sents(s).sid}")
        nBindings += viaDpli.size
      }
      assert(nBindings > 0, name)
      val truth = NaiveKoko.matchingSids(nq, sents)
      assert(truth.subsetOf(b.sents.map(sh.sid(_)).toSet), name)
    }
  }

  test("DPLI is complete: bindings contain every true match (random corpus)") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 40, seed = 17)
    val b = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    val paths = Seq("//verb/dobj", "/root/nsubj", """//verb//pobj""", "//propn",
      """//"born"""", """//verb//*[@pos="num"]""")
    paths.foreach { ps =>
      val p = path(ps)
      val viaIndex = sids(Dpli.lookup(b, PathDecomposer.decompose(p)))
      val truth = sents.flatMap(s => PathMatcher.candidates(p, s).map(t => (s.sid, t))).toSet
      assert(truth.subsetOf(viaIndex), s"path $ps: missing ${truth.diff(viaIndex).take(5)}")
    }
    b.unpersist()
  }

  test("DPLI over-approximation is validated away by PathMatcher") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 30, seed = 19)
    val b = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq.map(s => s.sid -> s).toMap
    val p = path("""//verb//pobj""")
    val viaIndex = sids(Dpli.lookup(b, PathDecomposer.decompose(p)))
    viaIndex.foreach { case (sid, tid) =>
      // every validated candidate is a true match; no false negatives
      val s = sents(sid)
      val valid = PathMatcher.matches(p, s, tid)
      val truthHere = PathMatcher.candidates(p, s).contains(tid)
      assert(valid == truthHere)
    }
    b.unpersist()
  }

  test("CaseFold equates exactly the words equalsIgnoreCase equates") {
    val chars = ((0 until 0x300).map(_.toChar.toString) ++
      Seq("\u0130", "\u0131", "\u017f", "\u212a", "\u03c2", "\u03a3", "\ud801\udc00", "\ud801\udc28")).distinct
    for (a <- chars; b <- chars)
      assert((CaseFold(a) == CaseFold(b)) == a.equalsIgnoreCase(b), s"'$a' (${a.map(_.toInt)}) vs '$b'")
    assert(CaseFold("Blue BOTTLE") == "blue bottle")
  }

  test("span word atoms find the same sentences in DPLI and the evaluator under a Turkish locale") {
    // "I ate ..." (fig1), "Anna ate ..." and "i ate ...": a span atom "i" or
    // "I" must reach both I-sentences, as equalsIgnoreCase does.
    val lowerI = fig1.copy(sid = 2, toks = fig1.toks.updated(0, fig1.toks.head.copy(word = "i")))
    val sents = Seq(fig1, anna, lowerI)
    val saved = Locale.getDefault
    try {
      Locale.setDefault(Locale.forLanguageTag("tr"))
      val sh = Shard.build(sents.iterator)
      Seq("i", "I").foreach { w =>
        val nq = Normalizer.normalize(KokoParser.parse(s"""extract x:Str from f if ( /ROOT:{ x = "$w" } )"""))
        val items = repro.core.Dpli.items(nq)
        assert(items.size == 1, items)
        val viaIndex = items.head.sentences(sh).map(sh.sid(_)).toSet
        assert(viaIndex == NaiveKoko.matchingSids(nq, sents), w)
        assert(viaIndex == Set(fig1.sid, lowerI.sid), w)
      }
    } finally Locale.setDefault(saved)
  }
}
