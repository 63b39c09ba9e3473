package repro.core

import repro.nlp.{Sent, TreeOps}

/** Per-sentence evaluation of the extract clause (§4.3).
  *
  * Node variables iterate over their (validated) path candidates; span
  * definitions are horizontal conditions matched by aligning atoms. With
  * `useGsp = true` the high-cost atoms selected by [[SkipPlan]] are not
  * enumerated but aligned from their neighbours' bindings; with
  * `useGsp = false` every atom — including elastic spans, which have
  * `t(t+1)/2` candidate spans — is enumerated by nested loops in
  * definition order, with contiguity checked only at the end (the
  * KOKO&noGSP baseline of Table 1).
  *
  * DPLI bindings are a *complete* but over-approximate candidate set
  * (§4.2.2 Discussion), so the evaluator re-validates every path with
  * [[PathMatcher]]; candidate counts used by the skip-plan cost model are
  * therefore exact here (same order of magnitude as the paper's DPLI
  * estimates).
  */
object SentenceEvaluator {
  import Ast._
  import Normalizer.NormQuery

  /** A bound value: token span `[lo, hi]` (inclusive; `hi = lo - 1` for an
    * empty elastic span) plus the node's `tid` for node bindings (-1 for
    * pure spans).
    */
  final case class Binding(lo: Int, hi: Int, tid: Int) {
    def isEmptySpan: Boolean = hi < lo
    def len: Int = hi - lo + 1
  }

  /** One extract tuple: a sentence's values of the query's needed
    * variables (public: Spark codegen must be able to construct it).
    */
  final case class Cand(doc: Long, sid: Long, vals: Map[String, String])

  def valueOf(s: Sent, b: Binding): String =
    if (b.hi < b.lo) "" else (b.lo to b.hi).map(s.toks(_).word).mkString(" ")

  /** One sentence's extract tuples (§4.3): for every GSP binding, the
    * values of the variables in `nq.neededVars` (a binding binds them all).
    */
  def extract(nq: NormQuery, s: Sent, gspNs: Long => Unit = _ => ()): Seq[Cand] =
    evaluate(nq, s, useGsp = true, gspNs).map { bound =>
      Cand(s.doc, s.sid, nq.neededVars.map(v => v -> valueOf(s, bound(v))).toMap)
    }

  def evaluate(
      nq: NormQuery,
      s: Sent,
      useGsp: Boolean,
      gspNs: Long => Unit = _ => ()): Seq[Map[String, Binding]] = {
    val t = s.t
    lazy val spans = TreeOps.spans(s.toks)
    lazy val mentions = TreeOps.mentionRanges(t, s.toks(_).eid)
    def etypeAccepts(typ: String, lo: Int): Boolean = typ == "Entity" || s.toks(lo).etype == typ
    val results = Seq.newBuilder[Map[String, Binding]]

    // ---- cached atom candidates (bound-independent atoms only)
    lazy val allSpans: Seq[Binding] = {
      val b = Vector.newBuilder[Binding]
      (0 to t).foreach(lo => b += Binding(lo, lo - 1, -1)) // empty spans
      (0 until t).foreach(lo => (lo until t).foreach(hi => b += Binding(lo, hi, -1)))
      b.result()
    }

    def elasticAccepts(conds: Seq[StepCond], b: Binding): Boolean = conds.forall { c =>
      c.attr match {
        case "etype" =>
          !b.isEmptySpan && mentions.contains(b.lo -> b.hi) && etypeAccepts(c.value, b.lo)
        case "regex" => valueOf(s, b).matches(c.value)
        case "min" => b.len >= c.value.toInt
        case "max" => b.len <= c.value.toInt
        case _ => true
      }
    }

    val atomCache = scala.collection.mutable.Map[Atom, Seq[Binding]]()
    def atomCands(a: Atom, bound: Map[String, Binding]): Seq[Binding] = a match {
      case AVar(n) => Seq(bound(n))
      case ASubtree(n) => Seq(Binding(spans.lo(bound(n).tid), spans.hi(bound(n).tid), -1))
      case other =>
        atomCache.getOrElseUpdate(other, other match {
          case APath(p) => PathMatcher.candidates(p, s).map(i => Binding(i, i, i))
          case AWords(ws) => Aggregator.occurrences(ws, s).map(i => Binding(i, i + ws.size - 1, -1))
          case AElastic(_, conds) => allSpans.filter(b => elasticAccepts(conds, b))
          case _ => Seq.empty
        })
    }

    def contiguous(cur: Array[Binding]): Boolean =
      (0 until cur.length - 1).forall(i => cur(i).hi + 1 == cur(i + 1).lo)

    /** All consistent atom assignments for one span definition. */
    def matchSpan(d: SpanDef, bound: Map[String, Binding]): Seq[Map[String, Binding]] = {
      val atoms = d.atoms.toIndexedSeq
      val m = atoms.size
      val cur = new Array[Binding](m)
      val assignments = Vector.newBuilder[Array[Binding]]

      if (useGsp) {
        val t0 = System.nanoTime()
        val skip = SkipPlan.plan(atoms, t, a => atomCands(a, bound).size)
        gspNs(System.nanoTime() - t0)

        /** A skipped atom's bindings, aligned from its neighbours (which
          * the plan never skips): an end touching a neighbour is pinned to
          * it, and a free end — only at the span's first or last atom —
          * ranges over the sentence.
          */
        def aligned(k: Int): Seq[Binding] = {
          val los = if (k > 0) Seq(cur(k - 1).hi + 1) else 0 to cur(k + 1).lo
          val his = if (k < m - 1) Seq(cur(k + 1).lo - 1) else cur(k - 1).hi until t
          atoms(k) match {
            case AElastic(_, conds) =>
              los.flatMap(lo => his.map(Binding(lo, _, -1)))
                .filter(b => b.hi >= b.lo - 1 && elasticAccepts(conds, b))
            case a => atomCands(a, bound).filter(b => los.contains(b.lo) && his.contains(b.hi))
          }
        }

        // Given the unskipped atoms, each skipped atom's choices are
        // independent: take their cartesian product.
        val skipped = skip.toIndexedSeq.sorted
        def fill(i: Int): Unit =
          if (i == skipped.size) assignments += cur.clone()
          else aligned(skipped(i)).foreach { b => cur(skipped(i)) = b; fill(i + 1) }

        val unskipped = atoms.indices.filterNot(skip)
        def rec(j: Int, prevHi: Int): Unit =
          if (j == unskipped.size) fill(0)
          else {
            val k = unskipped(j)
            val afterSkip = skip(k - 1)
            atomCands(atoms(k), bound).foreach { b =>
              if (k == 0 || (if (afterSkip) b.lo > prevHi else b.lo == prevHi + 1)) {
                cur(k) = b; rec(j + 1, b.hi)
              }
            }
          }
        rec(0, -1)
      } else {
        // noGSP: nested loops over every atom in definition order, with
        // consistency (contiguity) checked only on complete assignments.
        def recAll(k: Int): Unit = {
          if (k == m) { if (contiguous(cur)) assignments += cur.clone() }
          else atomCands(atoms(k), bound).foreach { b => cur(k) = b; recAll(k + 1) }
        }
        recAll(0)
      }

      assignments.result().map { arr =>
        val ext = scala.collection.mutable.Map[String, Binding]()
        atoms.indices.foreach { i =>
          atoms(i) match {
            case AElastic(n, _) => ext(n) = arr(i)
            case _ => ()
          }
        }
        ext(d.name) = Binding(arr(0).lo, arr(m - 1).hi, -1)
        ext.toMap
      }
    }

    def checkConstraints(bound: Map[String, Binding]): Boolean = nq.constraints.forall {
      case CIn(a, b) =>
        val (x, y) = (bound(a), bound(b))
        !x.isEmptySpan && !y.isEmptySpan && x.lo >= y.lo && x.hi <= y.hi
      case CEqC(a, b) => bound(a).lo == bound(b).lo && bound(a).hi == bound(b).hi
      case CParentOf(p, c) => s.toks(bound(c).tid).head == bound(p).tid
      case CAncestorOf(a, d) => TreeOps.isAncestorOf(s.toks, bound(a).tid, bound(d).tid)
    }

    // Node variables bind first, then free entity variables, then span
    // definitions (whose atoms may reference any of the former).
    type Bound = Map[String, Binding]
    val binders: Seq[Bound => Seq[Bound]] =
      nq.nodeDefs.map(nd => (bound: Bound) =>
        atomCands(APath(nd.path), bound).map(b => bound + (nd.name -> b))) ++
      nq.freeEnts.map(ov => (bound: Bound) =>
        mentions.collect { case (lo, hi) if etypeAccepts(ov.typ, lo) => bound + (ov.name -> Binding(lo, hi, -1)) }) ++
      nq.spanDefs.map(sd => (bound: Bound) => matchSpan(sd, bound).map(bound ++ _))

    def assign(i: Int, bound: Bound): Unit =
      if (i == binders.size) { if (checkConstraints(bound)) results += bound }
      else binders(i)(bound).foreach(assign(i + 1, _))
    assign(0, Map.empty)
    results.result()
  }
}
