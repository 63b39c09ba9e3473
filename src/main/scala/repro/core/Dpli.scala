package repro.core

import repro.index.{HierNode, Shard}
import repro.nlp.CaseFold

/** Decompose Paths and Lookup Indices (§4.2.2, Algorithm 1), over one
  * [[Shard]]'s posting lists. A posting list is an ascending array of token
  * ordinals, i.e. sorted on `(sid, tid)`; each token carries its quintuple
  * `(sid, tid, lo, hi, depth)`. The joins are merges with exactly the
  * paper's conditions:
  *
  *  - word-path join: `x₁=x₂ ∧ u₁≤u₂ ∧ v₁≥v₂ ∧ l₂≥l₁+gap` (Example 4.4);
  *  - P₁⋈P₂ (PL vs POS postings): same token, `x₁=x₂ ∧ y₁=y₂`;
  *  - P⋈Q: same token if the path ends in a word, else the P quintuple
  *    must be a descendant of Q's last word with the residual depth gap.
  *
  * Path word steps match words exactly; span word atoms match
  * case-insensitively (as [[PathMatcher]] and [[SentenceEvaluator]] do).
  *
  * Its result ([[bind]]) is the paper's candidate bindings: the candidate
  * sentences, and in them each node variable's candidate tokens, which the
  * evaluator validates instead of scanning every token.
  */
object Dpli {

  /** Ids of the dataguide nodes whose root path matches a decomposed PL or
    * POS pattern, matched by [[PathMatcher.matchesChain]] on the path's
    * labels (`*` matches any label); None for an all-wildcard pattern.
    */
  def dataguideIds(nodes: Seq[HierNode], pat: Seq[(Ast.Axis, String)]): Option[Array[Int]] =
    if (pat.forall(_._2 == "*")) None
    else {
      val (axes, labels) = pat.toIndexedSeq.unzip
      Some(nodes.filter { node =>
        val path = node.path.split('/').drop(1)
        PathMatcher.matchesChain(axes, path.length)((i, j) => labels(i) == "*" || labels(i) == path(j))
      }.map(_.id).toArray)
    }

  /** Ascending intersection of two ascending distinct arrays. */
  private def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) < b(j)) i += 1
      else if (a(i) > b(j)) j += 1
      else { out += a(i); i += 1; j += 1 }
    }
    out.result()
  }

  /** The postings `d` of `desc` that lie below some posting `a` of `anc`
    * in the same sentence: `a.lo ≤ d.lo ∧ a.hi ≥ d.hi ∧ d.depth ≥ a.depth + gap`.
    * A merge over the sentences both lists touch.
    */
  private def below(sh: Shard, anc: Array[Int], desc: Array[Int], gap: Int): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    var j = 0
    while (i < anc.length && j < desc.length) {
      val s = sh.sentOf(math.max(anc(i), desc(j)))
      val (from, until) = (sh.off(s), sh.off(s + 1))
      while (i < anc.length && anc(i) < from) i += 1
      while (j < desc.length && desc(j) < from) j += 1
      var i1 = i
      while (i1 < anc.length && anc(i1) < until) i1 += 1
      while (j < desc.length && desc(j) < until) {
        val d = desc(j)
        if ((i until i1).exists { k =>
            val a = anc(k)
            sh.lo(a) <= sh.lo(d) && sh.hi(a) >= sh.hi(d) && sh.depth(d) >= sh.depth(a) + gap
          }) out += d
        j += 1
      }
      i = i1
    }
    out.result()
  }

  /** Word-path lookup: successive word-index accesses joined left to
    * right with the ancestor-descendant + depth-gap condition. Returns
    * the postings of the last word on the path.
    */
  def lookupWordPath(sh: Shard, words: Seq[(Int, String)], within: Option[Array[Int]] = None): Option[Array[Int]] =
    words.headOption.map { case (first, w0) =>
      words.tail.foldLeft((sh.wordPostings(w0, within), first)) { case ((cur, prevIdx), (idx, w)) =>
        (below(sh, cur, sh.wordPostings(w, within), idx - prevIdx), idx)
      }._1
    }

  /** P₁⋈P₂: the tokens whose `plId` and `posId` are both in the matched
    * id sets. Enumerates the smaller side's postings and tests the other
    * side's id on each token (W stores both ids, §6.2.1).
    */
  private def hierPostings(
      sh: Shard,
      plIds: Option[Array[Int]],
      posIds: Option[Array[Int]],
      within: Option[Array[Int]]): Array[Int] = {
    def count(ids: Option[Array[Int]], size: Int => Int) = ids.fold(Int.MaxValue)(_.iterator.map(size).sum)
    val fromPl = count(plIds, sh.byPl.size) <= count(posIds, sh.byPos.size)
    val (ids, postings, other, column) =
      if (fromPl) (plIds.get, sh.byPl, posIds, sh.posId) else (posIds.get, sh.byPos, plIds, sh.plId)
    val all = within.fold(postings.union(ids))(postings.unionWithin(ids, _, sh.off))
    other.fold(all) { o =>
      val keep = o.toSet
      all.filter(t => keep.contains(column(t)))
    }
  }

  /** Candidate bindings (token ordinals) for one decomposed path: lookups
    * on the shard's own PL, POS and word indices joined per Algorithm 1;
    * only inside the ascending sentences `within` when given, each posting
    * list cut to their ordinals by a galloping cursor. Falls back to every
    * token only when the path constrains nothing (a descendant-axis
    * wildcard).
    */
  def lookup(sh: Shard, dec: PathDecomposer.Decomposed, within: Option[Array[Int]] = None): Array[Int] = {
    val (plIds, posIds) = (dataguideIds(sh.plNodes, dec.pl), dataguideIds(sh.posNodes, dec.pos))
    // A path absent from an index has no ids, hence no postings (§4.2.2 Discussion).
    val p = if (plIds.isEmpty && posIds.isEmpty) None else Some(hierPostings(sh, plIds, posIds, within))
    val q = lookupWordPath(sh, dec.words, within)
    def gap = (dec.nSteps - 1) - dec.words.last._1
    (p, q) match {
      case (Some(pp), Some(qq)) => if (dec.lastIsWord) intersect(pp, qq) else below(sh, qq, pp, gap)
      case (Some(pp), None) => pp
      // word followed by wildcard steps: all tokens below the last word
      // with the residual depth gap
      case (None, Some(qq)) => if (dec.lastIsWord) qq else below(sh, qq, sh.tokensOf(sh.sentencesOf(qq)), gap)
      case (None, None) => within.fold(Array.range(0, sh.nTokens))(sh.tokensOf)
    }
  }

  /** One pruning item of a query: the shard's sentences (ascending) that
    * can hold a binding of one variable.
    */
  sealed trait Item extends Serializable {
    def sentences(sh: Shard): Array[Int]
  }

  /** A dominant node path or an absolute span-atom path. */
  final case class PathItem(dec: PathDecomposer.Decomposed) extends Item {
    def sentences(sh: Shard): Array[Int] = sh.sentencesOf(lookup(sh, dec))
  }

  /** A span word atom, matched case-insensitively. */
  final case class WordItem(lower: String) extends Item {
    def sentences(sh: Shard): Array[Int] = sh.lowerSentences(lower)
  }

  /** A free entity variable; `etype` None for the `Entity` type. */
  final case class EntityItem(etype: Option[String]) extends Item {
    def sentences(sh: Shard): Array[Int] = sh.sentencesOf(sh.mentionPostings(etype))
  }

  /** The pruning items of a query: dominant node paths, span-atom paths
    * and words, and entity mentions for free entity variables.
    */
  def items(nq: Normalizer.NormQuery): Seq[Item] = {
    val nodePaths = nq.nodeDefs.map(d => d.name -> d.path)
    val byName = nodePaths.toMap
    val dominant = PathDecomposer.dominantOf(nodePaths).values.toSet.toSeq.sorted
    def path(p: Ast.PathExpr) = PathItem(PathDecomposer.decompose(p))
    val fromNodes = dominant.map(n => path(byName(n)))
    val fromAtoms = nq.spanDefs.flatMap(_.atoms).flatMap {
      case Ast.APath(p) if p.isAbsolute => Some(path(p))
      case Ast.AWords(ws) => ws.find(_.exists(_.isLetterOrDigit)).map(w => WordItem(CaseFold(w)))
      case _ => None
    }
    val fromEnts = nq.freeEnts.map(o => EntityItem(if (o.typ == "Entity") None else Some(o.typ)))
    fromNodes ++ fromAtoms ++ fromEnts
  }

  /** DPLI's part of a query: its pruning items, and each node variable's
    * own decomposed path (in the order of `NormQuery.nodeDefs`).
    */
  final case class Plan(items: Seq[Item], nodes: Seq[PathDecomposer.Decomposed])

  def plan(nq: Normalizer.NormQuery): Plan =
    Plan(items(nq), nq.nodeDefs.map(d => PathDecomposer.decompose(d.path)))

  /** DPLI's bindings on one shard (§4.2.2): the candidate sentences,
    * ascending, and per node variable the token ordinals in them that may
    * bind it — a superset of those that do.
    */
  final class Bound(val sents: Array[Int], ords: Array[Array[Int]]) {

    /** Per candidate sentence, in the order of `sents`: each node
      * variable's token ids in it.
      */
    def tokenIds(sh: Shard): Iterator[Array[Array[Int]]] = {
      val pos = new Array[Int](ords.length)
      sents.iterator.map { s =>
        val (base, end) = (sh.off(s), sh.off(s + 1))
        Array.tabulate(ords.length) { v =>
          val (a, from) = (ords(v), pos(v))
          while (pos(v) < a.length && a(pos(v)) < end) pos(v) += 1
          Array.tabulate(pos(v) - from)(k => a(from + k) - base)
        }
      }
    }
  }

  /** The shard's candidate sentences after DPLI, the intersection of the
    * items' sentences, with each node variable's token ordinals in them: a
    * variable whose own path is a path item reuses that item's ordinals,
    * and any other looks its path up inside the candidates only. None when
    * there is no item (empty extract clause — every sentence is
    * considered, §4.3).
    */
  def bind(sh: Shard, plan: Plan): Option[Bound] =
    plan.items.headOption.map { first =>
      val looked = scala.collection.mutable.HashMap[PathDecomposer.Decomposed, Array[Int]]()
      def sentences(it: Item): Array[Int] = it match {
        case PathItem(dec) => sh.sentencesOf(looked.getOrElseUpdate(dec, lookup(sh, dec)))
        case _ => it.sentences(sh)
      }
      val sents = plan.items.tail.foldLeft(sentences(first)) { (acc, it) =>
        if (acc.isEmpty) acc else intersect(acc, sentences(it))
      }
      new Bound(sents, plan.nodes.map { dec =>
        if (sents.isEmpty) Array.emptyIntArray
        else looked.get(dec).fold(lookup(sh, dec, Some(sents)))(sh.within(_, sents))
      }.toArray)
    }

  /** The shard's candidate sentences after DPLI (see [[bind]]). */
  def candidates(sh: Shard, items: Seq[Item]): Option[Array[Int]] = bind(sh, Plan(items, Nil)).map(_.sents)
}
