package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.Fixtures
import repro.nlp.CorpusGen

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
}
