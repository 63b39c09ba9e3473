package repro.index

import java.util.Arrays
import repro.nlp.{CaseFold, CorpusGen, Sent, Tok, TreeOps}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Posting lists in compressed-row form: the postings of key `k` are
  * `items(start(k) until start(k + 1))`, in ascending order.
  */
final class Postings private (start: Array[Int], items: Array[Int]) extends Serializable {

  private def has(key: Int): Boolean = key >= 0 && key + 1 < start.length

  def size(key: Int): Int = if (has(key)) start(key + 1) - start(key) else 0

  def apply(key: Int): Array[Int] =
    if (has(key)) Arrays.copyOfRange(items, start(key), start(key + 1)) else Array.emptyIntArray

  /** The ascending union of several keys' postings; keys must not share
    * an item (every token has one word, one `plId`, ...).
    */
  def union(keys: Iterable[Int]): Array[Int] = {
    val out = new Array[Int](keys.iterator.map(size).sum)
    var n = 0
    keys.foreach { k =>
      if (has(k)) {
        System.arraycopy(items, start(k), out, n, size(k))
        n += size(k)
      }
    }
    Arrays.sort(out)
    out
  }

  /** The postings of `key` inside the ascending sentences `sents`, where
    * sentence `s` holds the ordinals `off(s) until off(s + 1)`.
    */
  def within(key: Int, sents: Array[Int], off: Array[Int]): Array[Int] =
    if (has(key)) Postings.cut(items, start(key), start(key + 1), sents, off) else Array.emptyIntArray

  /** [[union]] of the keys' postings inside the sentences `sents` (see [[within]]). */
  def unionWithin(keys: Iterable[Int], sents: Array[Int], off: Array[Int]): Array[Int] = {
    val out = Array.concat(keys.iterator.map(within(_, sents, off)).toSeq: _*)
    Arrays.sort(out)
    out
  }

  /** The ascending distinct sentences that hold a posting of one of `keys`
    * (sentence `s` holds the ordinals `off(s) until off(s + 1)`): a merge of
    * the keys' lists that, after each sentence found, gallops every list to
    * the next sentence's first ordinal.
    */
  def sentences(keys: Array[Int], off: Array[Int]): Array[Int] = {
    val ks = keys.filter(has)
    val pos = ks.map(start(_))
    val end = ks.map(k => start(k + 1))
    val out = new mutable.ArrayBuilder.ofInt
    var s = 0
    var more = true
    while (more) {
      var min = Int.MaxValue
      var i = 0
      while (i < ks.length) { if (pos(i) < end(i) && items(pos(i)) < min) min = items(pos(i)); i += 1 }
      more = min != Int.MaxValue
      if (more) {
        s = Postings.sentenceFrom(off, s, min)
        out += s
        i = 0
        while (i < ks.length) { pos(i) = Postings.seek(items, pos(i), end(i), off(s + 1)); i += 1 }
      }
    }
    out.result()
  }
}

object Postings {

  /** The first index in `[i, until)` of ascending `a` whose item is `≥ x`
    * (`until` if none): galloping from `i`, then a binary search.
    */
  private[index] def seek(a: Array[Int], i: Int, until: Int, x: Int): Int =
    if (i >= until || a(i) >= x) i
    else {
      var lo = i // a(lo) < x
      var step = 1
      while (lo + step < until && a(lo + step) < x) { lo += step; step <<= 1 }
      val k = Arrays.binarySearch(a, lo + 1, math.min(lo + step, until), x)
      if (k >= 0) k else -k - 1
    }

  /** The sentence that holds ordinal `o`, from sentence `from ≤` it on
    * (sentence `s` holds `off(s) until off(s + 1)`): a forward cursor that
    * steps through `off` and binary-searches only after eight misses.
    */
  private[index] def sentenceFrom(off: Array[Int], from: Int, o: Int): Int = {
    var s = from
    var misses = 0
    while (off(s + 1) <= o && misses < 8) { s += 1; misses += 1 }
    if (off(s + 1) > o) s
    else {
      val i = Arrays.binarySearch(off, s + 1, off.length, o)
      if (i >= 0) i else -i - 2
    }
  }

  /** The items of ascending `a(from until until)` that lie in the ascending
    * sentences `sents` (see [[sentenceFrom]]): a forward cursor that
    * gallops to each sentence's first ordinal.
    */
  private[index] def cut(a: Array[Int], from: Int, until: Int, sents: Array[Int], off: Array[Int]): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var i = from
    var k = 0
    while (k < sents.length && i < until) {
      i = seek(a, i, until, off(sents(k)))
      val end = off(sents(k) + 1)
      while (i < until && a(i) < end) { out += a(i); i += 1 }
      k += 1
    }
    out.result()
  }

  /** Groups `items(i)` under `keys(i)` (keys in `[0, nKeys)`). The sort is
    * stable, so each list keeps the order of `items`.
    */
  def group(nKeys: Int, keys: Array[Int], items: Array[Int]): Postings = {
    val start = new Array[Int](nKeys + 1)
    keys.foreach(k => start(k + 1) += 1)
    (0 until nKeys).foreach(k => start(k + 1) += start(k))
    val fill = Arrays.copyOf(start, nKeys)
    val out = new Array[Int](items.length)
    items.indices.foreach { i =>
      out(fill(keys(i))) = items(i)
      fill(keys(i)) += 1
    }
    new Postings(start, out)
  }
}

/** One doc-partitioned shard of KOKO's multi-index (§3, §6.2.1): every
  * sentence of the shard's documents, in `sid` order, as primitive columns.
  *
  * A token is addressed by its *ordinal*: `off(s) + tid` for the token
  * `tid` of the shard's `s`-th sentence. Ordinals ascend with `(sid, tid)`,
  * so every posting list below is sorted on `(sid, tid)` and Algorithm 1's
  * joins are merges ([[repro.core.Dpli]]). Strings (`word`, `etype`) are
  * ids into the shard's sorted dictionary `dict`. A token's parse label, POS
  * tag and depth are those of its nodes `plId`/`posId` in the shard's own
  * dataguides `plNodes`/`posNodes` ([[Shard.dataguide]]): a shard is a
  * complete multi-index of its documents.
  *
  * Postings: W by word, by `plId` and by `posId` (token ordinals); E by
  * entity type (the ordinal of each mention's first token). The dictionary
  * holds only words and entity types: a span word atom's sentences come
  * from the postings of the words whose [[CaseFold]] it is.
  */
final class Shard private (
    dict: Array[String],
    val sid: Array[Long],
    val off: Array[Int],
    word: Array[Int],
    etype: Array[Int],
    val head: Array[Int],
    val eid: Array[Int],
    val lo: Array[Int],
    val hi: Array[Int],
    val plId: Array[Int],
    val posId: Array[Int],
    val plNodes: IndexedSeq[HierNode],
    val posNodes: IndexedSeq[HierNode],
    byWord: Postings,
    val byPl: Postings,
    val byPos: Postings,
    byEtype: Postings) extends Serializable {

  def nSents: Int = sid.length
  def nTokens: Int = off(nSents)

  /** The document of sentence `s`, `sid / 64` ([[Shard.build]] checks the layout). */
  def doc(s: Int): Long = Math.floorDiv(sid(s), CorpusGen.MaxSentsPerDoc.toLong)

  /** The depth of token ordinal `o` below its sentence's root. */
  def depth(o: Int): Int = plNodes(plId(o)).depth

  /** Dictionary id of `s`, or -1 if no token of the shard uses it. */
  def idOf(s: String): Int = math.max(-1, Arrays.binarySearch(dict.asInstanceOf[Array[AnyRef]], s))

  /** The sentence holding token ordinal `o`. */
  def sentOf(o: Int): Int = {
    val i = Arrays.binarySearch(off, o)
    if (i >= 0) i else -i - 2
  }

  def tid(o: Int): Int = o - off(sentOf(o))

  /** Postings of an exact word; only those inside the ascending sentences
    * `within` when given.
    */
  def wordPostings(w: String, within: Option[Array[Int]] = None): Array[Int] =
    within.fold(byWord(idOf(w)))(byWord.within(idOf(w), _, off))

  /** Sentences with a token whose case-folded word is `lower`. */
  def lowerSentences(lower: String): Array[Int] =
    byWord.sentences(dict.indices.filter(i => CaseFold(dict(i)) == lower).toArray, off)

  /** First-token ordinals of the mentions of entity type `typ`; of every
    * mention when `typ` is None.
    */
  def mentionPostings(typ: Option[String]): Array[Int] = typ match {
    case Some(t) => byEtype(idOf(t))
    case None => byEtype.union(dict.indices)
  }

  /** Ascending distinct sentences of ascending token ordinals, found by a
    * forward cursor over `off`.
    */
  def sentencesOf(ords: Array[Int]): Array[Int] = {
    val out = new mutable.ArrayBuilder.ofInt
    var s = 0
    var last = -1
    ords.foreach { o =>
      s = Postings.sentenceFrom(off, s, o)
      if (s != last) { out += s; last = s }
    }
    out.result()
  }

  /** The ascending token ordinals `ords` that lie in the ascending sentences `sents`. */
  def within(ords: Array[Int], sents: Array[Int]): Array[Int] = Postings.cut(ords, 0, ords.length, sents, off)

  /** Every token ordinal of the given ascending sentences. */
  def tokensOf(sents: Array[Int]): Array[Int] =
    sents.flatMap(s => off(s) until off(s + 1))

  /** The sentences of document `d`, between its first and last `sid` in the layout `d * 64 + k`. */
  def sentencesOfDoc(d: Long): Range = {
    def at(x: Long, absent: Int => Int): Int = {
      val i = Arrays.binarySearch(sid, x)
      if (i >= 0) i else absent(-i - 1)
    }
    at(CorpusGen.gsid(d, 0), identity) to at(CorpusGen.gsid(d, CorpusGen.MaxSentsPerDoc - 1), _ - 1)
  }

  /** LoadArticle: sentence `s` as the evaluator reads it. */
  def sent(s: Int): Sent = {
    val base = off(s)
    val toks = new Array[Tok](off(s + 1) - base)
    var t = 0
    while (t < toks.length) {
      val o = base + t
      toks(t) = Tok(t, dict(word(o)), posNodes(posId(o)).label, plNodes(plId(o)).label, head(o), dict(etype(o)), eid(o))
      t += 1
    }
    Sent(doc(s), sid(s), ArraySeq.unsafeWrapArray(toks))
  }

  def sents: Iterator[Sent] = Iterator.range(0, nSents).map(sent)

  /** The W rows, `plId`/`posId` mapped by root path to the ids `plIds`/`posIds`. */
  def tokenRows(plIds: Map[String, Int], posIds: Map[String, Int]): Iterator[TokenRow] = {
    val (pl, ps) = (plNodes.map(n => plIds(n.path)), posNodes.map(n => posIds(n.path)))
    Iterator.range(0, nSents).flatMap { s =>
      Iterator.range(off(s), off(s + 1)).map { o =>
        TokenRow(doc(s), sid(s), o - off(s), dict(word(o)), posNodes(posId(o)).label, plNodes(plId(o)).label,
          head(o), dict(etype(o)), eid(o), lo(o), hi(o), depth(o), pl(plId(o)), ps(posId(o)))
      }
    }
  }

  /** The E table: one row per entity mention ([[TreeOps.mentionRanges]]). */
  def entityRows: Iterator[EntityRow] = Iterator.range(0, nSents).flatMap { s =>
    TreeOps.mentionRanges(off(s + 1) - off(s), t => eid(off(s) + t)).map { case (first, last) =>
      EntityRow((first to last).map(t => dict(word(off(s) + t))).mkString(" "), dict(etype(off(s) + first)),
        doc(s), sid(s), first, last)
    }
  }
}

object Shard {

  /** The hierarchy index (compressed dataguide, §3) of some tokens' root
    * paths: their distinct paths (a prefix of one is an ancestor's), with
    * ids their ranks in path order, so deterministic across runs.
    */
  def dataguide(paths: IterableOnce[String]): IndexedSeq[HierNode] =
    paths.iterator.distinct.toIndexedSeq.sorted.zipWithIndex.map { case (p, i) =>
      val parts = p.split('/')
      HierNode(i, p, parts.last, parts.length - 2)
    }

  /** One partition's sentences in `sid` order, each with its tree metadata.
    * Fails loudly on input the layout cannot hold: a `sid` outside
    * `[doc * 64, doc * 64 + 63]` (a document with more than
    * [[CorpusGen.MaxSentsPerDoc]] sentences), a duplicate `sid`, or a
    * malformed dependency tree. All of a document's sentences must be in
    * the partition.
    */
  private def prepare(part: Iterator[Sent]): Array[(Sent, TreeOps.Meta)] = {
    val sents = part.toArray.sortBy(_.sid)
    sents.foreach { s =>
      if (Math.floorDiv(s.sid, CorpusGen.MaxSentsPerDoc.toLong) != s.doc)
        throw new IllegalArgumentException(
          s"document ${s.doc}: sentence id ${s.sid} is outside [${CorpusGen.gsid(s.doc, 0)}, " +
            s"${CorpusGen.gsid(s.doc, CorpusGen.MaxSentsPerDoc - 1)}]; a document holds at most " +
            s"${CorpusGen.MaxSentsPerDoc} sentences")
    }
    sents.sliding(2).foreach {
      case Array(a, b) if a.sid == b.sid =>
        throw new IllegalArgumentException(s"document ${a.doc}: duplicate sentence id ${a.sid}")
      case _ => ()
    }
    sents.map { s =>
      TreeOps.validate(s.toks).left.foreach(msg =>
        throw new IllegalArgumentException(s"sentence ${s.sid} (document ${s.doc}): malformed tree: $msg"))
      s -> TreeOps.meta(s.toks)
    }
  }

  /** The shard of one partition, which holds all of its documents' sentences. Throws
    * `IllegalArgumentException` on input the layout cannot hold (see [[prepare]]).
    */
  def build(part: Iterator[Sent]): Shard = {
    val sents = prepare(part)
    val plNodes = dataguide(sents.iterator.flatMap(_._2.plPath))
    val posNodes = dataguide(sents.iterator.flatMap(_._2.posPath))
    val plIds = plNodes.map(n => n.path -> n.id).toMap
    val posIds = posNodes.map(n => n.path -> n.id).toMap
    val off = sents.scanLeft(0)(_ + _._1.t)
    val n = off.last
    val strings = mutable.HashSet[String]()
    sents.foreach(_._1.toks.foreach(t => strings ++= Seq(t.word, t.etype)))
    val dict = strings.toArray.sorted
    val id = dict.zipWithIndex.toMap
    def col() = new Array[Int](n)
    val (word, etype, head, eid) = (col(), col(), col(), col())
    val (lo, hi, plId, posId) = (col(), col(), col(), col())
    val mentionStarts = Array.newBuilder[Int]
    sents.indices.foreach { s =>
      val (sent, m) = sents(s)
      sent.toks.foreach { t =>
        val o = off(s) + t.tid
        word(o) = id(t.word); etype(o) = id(t.etype)
        head(o) = t.head; eid(o) = t.eid
        lo(o) = m.lo(t.tid); hi(o) = m.hi(t.tid)
        plId(o) = plIds(m.plPath(t.tid)); posId(o) = posIds(m.posPath(t.tid))
      }
      TreeOps.mentionRanges(sent.t, t => eid(off(s) + t)).foreach { case (first, _) => mentionStarts += off(s) + first }
    }
    val ords = Array.range(0, n)
    val starts = mentionStarts.result()
    new Shard(dict, sents.map(_._1.sid), off, word, etype, head, eid, lo, hi, plId, posId, plNodes, posNodes,
      byWord = Postings.group(dict.length, word, ords),
      byPl = Postings.group(plNodes.size, plId, ords),
      byPos = Postings.group(posNodes.size, posId, ords),
      byEtype = Postings.group(dict.length, starts.map(etype), starts))
  }
}
