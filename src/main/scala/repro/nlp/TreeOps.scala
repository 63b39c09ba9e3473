package repro.nlp

/** Pure dependency-tree computations shared by the indexer and evaluator. */
object TreeOps {

  /** Per-token subtree spans of one sentence: `lo(i)`/`hi(i)` are the
    * first/last token ids of token `i`'s subtree (the `u-v` of the paper's
    * quintuple) and `depth(i)` its depth from the root.
    */
  final case class Spans(depth: Array[Int], lo: Array[Int], hi: Array[Int])

  /** [[Spans]] plus `plPath`/`posPath`, the "/"-joined parse-label /
    * POS-tag paths from the root down to token `i` (the hierarchy-index
    * node keys), which only the index build reads.
    */
  final case class Meta(
      depth: Array[Int],
      lo: Array[Int],
      hi: Array[Int],
      plPath: Array[String],
      posPath: Array[String])

  /** Index of the root token (head == -1); -1 if the sentence has none. */
  def rootOf(toks: Seq[Tok]): Int = toks.indexWhere(_.head < 0)

  /** Children lists in ascending `tid` order (deterministic traversal). */
  def childrenOf(toks: Seq[Tok]): Array[List[Int]] = {
    val ch = Array.fill(toks.size)(List.empty[Int])
    toks.foreach(t => if (t.head >= 0) ch(t.head) = t.tid :: ch(t.head))
    ch.map(_.sorted)
  }

  /** Compute [[Spans]] for a well-formed tree (see [[validate]]): each
    * token widens the span of every ancestor on its chain to the root.
    */
  def spans(toks: Seq[Tok]): Spans = {
    val n = toks.size
    val head = new Array[Int](n)
    toks.foreach(t => head(t.tid) = t.head)
    val depth = new Array[Int](n)
    val lo = Array.range(0, n)
    val hi = Array.range(0, n)
    var i = 0
    while (i < n) {
      var a = head(i)
      while (a >= 0) {
        depth(i) += 1
        if (i < lo(a)) lo(a) = i
        if (i > hi(a)) hi(a) = i
        a = head(a)
      }
      i += 1
    }
    Spans(depth, lo, hi)
  }

  /** Compute [[Meta]] for a well-formed tree (see [[validate]]). */
  def meta(toks: Seq[Tok]): Meta = {
    def paths(key: Tok => String): Array[String] = {
      val out = new Array[String](toks.size)
      def path(i: Int): String = {
        if (out(i) == null) out(i) = (if (toks(i).head < 0) "" else path(toks(i).head)) + "/" + key(toks(i))
        out(i)
      }
      toks.indices.foreach(path)
      out
    }
    val sp = spans(toks)
    Meta(sp.depth, sp.lo, sp.hi, paths(_.label), paths(_.pos))
  }

  /** Structural validation: tids are 0..n-1 in order, POS tags and parse
    * labels non-empty and without "/" (the root paths' separator), exactly
    * one root, heads in range, every token reachable from the root (no
    * cycles), and every entity mention one contiguous run with one `etype`.
    */
  def validate(toks: Seq[Tok]): Either[String, Unit] = {
    val n = toks.size
    if (n == 0) return Left("empty sentence")
    toks.zipWithIndex.foreach { case (t, i) =>
      if (t.tid != i) return Left(s"tid mismatch at $i: ${t.tid}")
      if (Seq(t.pos, t.label).exists(l => l.isEmpty || l.contains('/')))
        return Left(s"""POS tag "${t.pos}" or parse label "${t.label}" at $i is empty or holds '/'""")
      if (t.head >= n) return Left(s"head out of range at $i: ${t.head}")
      if (t.head == i) return Left(s"self-loop at $i")
    }
    val roots = toks.count(_.head < 0)
    if (roots != 1) return Left(s"expected 1 root, found $roots")
    val ch = childrenOf(toks)
    var seen = 0
    val visited = new Array[Boolean](n)
    def rec(i: Int): Unit =
      if (!visited(i)) { visited(i) = true; seen += 1; ch(i).foreach(rec) }
    rec(rootOf(toks))
    if (seen != n) return Left(s"unreachable tokens: visited $seen of $n")
    mentionRanges(n, toks(_).eid).groupBy(r => toks(r._1).eid).foreach {
      case (e, Seq((lo, hi))) =>
        val types = (lo to hi).map(toks(_).etype).distinct
        if (types.size > 1) return Left(s"entity $e at $lo..$hi has etypes ${types.mkString(", ")}")
      case (e, runs) => return Left(s"entity $e is split into runs ${runs.map { case (lo, hi) => s"$lo..$hi" }.mkString(", ")}")
    }
    Right(())
  }

  /** `true` iff `a` is a strict ancestor of `d`. */
  def isAncestorOf(toks: Seq[Tok], a: Int, d: Int): Boolean = {
    var cur = toks(d).head
    while (cur >= 0) {
      if (cur == a) return true
      cur = toks(cur).head
    }
    false
  }

  /** The chain of token ids from the root down to `tid` (inclusive). */
  def chainTo(toks: Seq[Tok], tid: Int): List[Int] = {
    var acc: List[Int] = Nil
    var cur = tid
    while (cur >= 0) { acc = cur :: acc; cur = toks(cur).head }
    acc
  }

  /** KOKO's one entity-mention rule: the maximal runs of tokens `0 until n`
    * that share one `eid ≥ 0`, as `(lo, hi)` in token order. [[validate]]
    * rejects an `eid` that is not one such run, so each run is a whole
    * mention with one `etype`.
    */
  def mentionRanges(n: Int, eid: Int => Int): Seq[(Int, Int)] =
    (0 until n).filter(i => eid(i) >= 0 && (i == 0 || eid(i - 1) != eid(i)))
      .map(lo => lo -> (lo until n).takeWhile(eid(_) == eid(lo)).last)

  /** Entity mentions of a sentence (see [[mentionRanges]]). */
  def entityMentions(s: Sent): Seq[EntityMention] =
    mentionRanges(s.t, s.toks(_).eid).map { case (lo, hi) =>
      EntityMention(s.doc, s.sid, lo, hi, s.toks(lo).etype, (lo to hi).map(s.toks(_).word).mkString(" "))
    }
}
