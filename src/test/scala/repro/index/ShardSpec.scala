package repro.index

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.nlp.{CaseFold, CorpusGen, Sent, TreeOps}
import scala.util.Random

/** Shard-level checks that need no Spark. */
class ShardSpec extends AnyFunSuite {

  test("sentencesOfDoc finds the sentences of the largest document id the sid layout holds") {
    val d = Long.MaxValue / CorpusGen.MaxSentsPerDoc
    val sents = Seq(
      Fixtures.fig1.copy(doc = d, sid = CorpusGen.gsid(d, 0)),
      Fixtures.anna.copy(doc = d, sid = CorpusGen.gsid(d, 1)))
    val sh = Shard.build(sents.iterator)
    assert(sh.sentencesOfDoc(d) == (0 to 1))
    assert(sh.sentencesOfDoc(d).map(sh.sid(_)) == sents.map(_.sid))
    assert(sh.sentencesOfDoc(d - 1).isEmpty)
  }

  test("a shard gives back its sentences token by token, and each token's depth, from its columns and dataguides") {
    for (kind <- Seq("happy", "wiki", "cafe"); seed <- Seq(5L, 6L)) {
      val sents = new Random(seed).shuffle((0L until 40L).flatMap(CorpusGen.docOf(kind, _, seed)))
      val sh = Shard.build(sents.iterator)
      val sorted = sents.sortBy(_.sid)
      assert(sh.sents.toSeq == sorted, s"$kind, seed $seed")
      val depths = sorted.flatMap(s => TreeOps.spans(s.toks).depth)
      assert((0 until sh.nTokens).map(sh.depth) == depths, s"$kind, seed $seed")
    }
  }

  test("the dictionary holds no word that occurs only in folded form; span words find every case of a word") {
    assert(Fixtures.anna.toks.head.word == "Anna")
    val fixtures = Shard.build(Fixtures.both.iterator)
    assert(fixtures.idOf("Anna") >= 0)
    assert(fixtures.idOf("anna") == -1)
    assert(fixtures.lowerSentences("anna").toSeq == Seq(1))
    val shouting = Fixtures.anna.copy(sid = 2, toks = Fixtures.anna.toks.map { t =>
      if (t.tid == 0) t.copy(word = "ANNA") else if (t.word == "she") t.copy(word = "anna") else t
    })
    val sh = Shard.build((Fixtures.both :+ shouting).iterator)
    assert(sh.idOf("anna") >= 0 && sh.idOf("ANNA") >= 0)
    assert(sh.lowerSentences("anna").toSeq == Seq(1, 2))
    assert(sh.lowerSentences("she").toSeq == Seq(1))
    assert(sh.lowerSentences("absent").isEmpty)
  }

  test("lowerSentences equals a scan for tokens equal to the word ignoring case") {
    for (kind <- Seq("happy", "wiki", "cafe"); seed <- Seq(5L, 6L)) {
      val sents = (0L until 40L).flatMap(CorpusGen.docOf(kind, _, seed)).sortBy(_.sid)
      val sh = Shard.build(sents.iterator)
      val sampled = sents.flatMap(_.toks.map(_.word)).distinct.filter(_.exists(_.isLetter)).take(6)
      val words = sampled ++ sampled.map(_.toUpperCase(java.util.Locale.ROOT)) :+ "Zyzzyva"
      words.foreach { w =>
        val scan = sents.indices.filter(i => sents(i).toks.exists(_.word.equalsIgnoreCase(w)))
        assert(sh.lowerSentences(CaseFold(w)).toSeq == scan, s"$kind, seed $seed, word $w")
      }
    }
  }

  test("the sentence cursor and the word merge equal a binary search per ordinal and a union, sort and search (scalacheck)") {
    val cases = for {
      kind <- Gen.oneOf("happy", "wiki", "cafe")
      seed <- Gen.choose(0L, 10000L)
      nDocs <- Gen.choose(1L, 60L)
      keep <- Gen.choose(1, 4)
    } yield (kind, seed, nDocs, keep)
    val prop = Prop.forAllNoShrink(cases) { case (kind, seed, nDocs, keep) =>
      val sents = (0L until nDocs).flatMap(CorpusGen.docOf(kind, _, seed)).sortBy(_.sid)
      val sh = Shard.build(sents.iterator)
      def bySearch(ords: Array[Int]) = ords.map(sh.sentOf).distinct.toSeq
      val words = sents.flatMap(_.toks.map(_.word)).distinct
      val within = (0 until sh.nSents).filter(_ % keep == 0).toArray
      Prop.all(words.map { w =>
        val ords = sh.wordPostings(w)
        val sameCase = words.filter(CaseFold(_) == CaseFold(w)).map(sh.wordPostings(_))
        val union = Array.concat(sameCase: _*).sorted
        (sh.sentencesOf(ords).toSeq == bySearch(ords) &&
          sh.lowerSentences(CaseFold(w)).toSeq == bySearch(union) &&
          sh.wordPostings(w, Some(within)).toSeq == ords.filter(o => within.contains(sh.sentOf(o))).toSeq) :|
          s"$kind seed $seed, $nDocs docs, word $w"
      }: _*)
    }
    val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(30).withInitialSeed(41L), prop)
    assert(res.passed, Pretty.pretty(res))
  }
}
