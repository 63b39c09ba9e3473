package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.nlp.{CorpusGen, TreeOps}
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
}
