package repro.core

import repro.nlp.{EntityMention, Sent, TreeOps}

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

  /** One sentence's extract tuples (§4.3): for every GSP binding that binds
    * all outputs, the values of the variables in `nq.neededVars`.
    */
  def extract(nq: NormQuery, s: Sent, gspNs: Long => Unit = _ => ()): Seq[Cand] = {
    val needed = nq.neededVars
    evaluate(nq, s, useGsp = true, gspNs).flatMap { bound =>
      val vals = needed.flatMap(v => bound.get(v).map(b => v -> valueOf(s, b))).toMap
      if (nq.outputs.forall(o => vals.contains(o.name))) Some(Cand(s.doc, s.sid, vals)) else None
    }
  }

  def evaluate(
      nq: NormQuery,
      s: Sent,
      useGsp: Boolean,
      gspNs: Long => Unit = _ => ()): Seq[Map[String, Binding]] = {
    val meta = TreeOps.meta(s.toks)
    val t = s.t
    val mentions = TreeOps.entityMentions(s)
    val results = Seq.newBuilder[Map[String, Binding]]

    val defsByName: Map[String, VarDef] =
      (nq.nodeDefs ++ nq.spanDefs).map(d => (d.name, d: VarDef)).toMap

    // ---- cached atom candidates (bound-independent atoms only)
    val pathCands = scala.collection.mutable.Map[PathExpr, Seq[Int]]()
    def candsOfPath(p: PathExpr): Seq[Int] =
      pathCands.getOrElseUpdate(p, PathMatcher.candidates(p, s))

    lazy val allSpans: Seq[Binding] = {
      val b = Vector.newBuilder[Binding]
      (0 to t).foreach(lo => b += Binding(lo, lo - 1, -1)) // empty spans
      (0 until t).foreach(lo => (lo until t).foreach(hi => b += Binding(lo, hi, -1)))
      b.result()
    }

    def mentionAt(lo: Int, hi: Int): Option[EntityMention] =
      mentions.find(m => m.lo == lo && m.hi == hi)

    def elasticAccepts(conds: Seq[StepCond], b: Binding): Boolean = conds.forall { c =>
      c.attr match {
        case "etype" =>
          !b.isEmptySpan && mentionAt(b.lo, b.hi).exists(m => c.value == "Entity" || m.etype == c.value)
        case "regex" => valueOf(s, b).matches(c.value)
        case "min" => b.len >= c.value.toInt
        case "max" => b.len <= c.value.toInt
        case _ => true
      }
    }

    val atomCache = scala.collection.mutable.Map[Atom, Seq[Binding]]()
    def atomCands(a: Atom, bound: Map[String, Binding]): Seq[Binding] = a match {
      case AVar(n) => bound.get(n).toSeq
      case ASubtree(n) =>
        bound.get(n).toSeq.filter(_.tid >= 0).map(b => Binding(meta.lo(b.tid), meta.hi(b.tid), -1))
      case other =>
        atomCache.getOrElseUpdate(other, other match {
          case APath(p) => candsOfPath(p).map(i => Binding(i, i, i))
          case AWords(ws) => Aggregator.occurrences(ws, s).map(i => Binding(i, i + ws.size - 1, -1))
          case AElastic(_, conds) => allSpans.filter(b => elasticAccepts(conds, b))
          case _ => Seq.empty
        })
    }

    def atomAccepts(a: Atom, b: Binding, bound: Map[String, Binding]): Boolean = a match {
      case APath(p) => b.lo == b.hi && candsOfPath(p).contains(b.lo)
      case AVar(n) => bound.get(n).exists(v => v.lo == b.lo && v.hi == b.hi)
      case ASubtree(n) =>
        bound.get(n).exists(v => v.tid >= 0 && meta.lo(v.tid) == b.lo && meta.hi(v.tid) == b.hi)
      case AWords(ws) => b.len == ws.size && Aggregator.occurrences(ws, s).contains(b.lo)
      case AElastic(_, conds) => elasticAccepts(conds, b)
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
        val unskipped = atoms.indices.filterNot(skip.contains)

        def deriveSkipped(): Seq[Array[Binding]] = {
          // Interior skipped atoms have a single aligned span; boundary
          // skipped atoms keep one free end and contribute a choice list.
          var opts: Seq[Array[Binding]] = Seq(cur.clone())
          skip.toSeq.sorted.foreach { k =>
            opts = opts.flatMap { arr =>
              val choices: Seq[Binding] =
                if (k > 0 && k < m - 1) {
                  val lo = arr(k - 1).hi + 1
                  val hi = arr(k + 1).lo - 1
                  if (hi < lo - 1) Seq.empty
                  else {
                    val tid = if (lo == hi) lo else -1
                    Seq(Binding(lo, hi, if (atoms(k).isInstanceOf[APath]) tid else -1))
                  }
                } else if (k == 0) {
                  val end = arr(1).lo - 1
                  atoms(k) match {
                    case AElastic(_, _) => (0 to end + 1).map(st => Binding(st, end, -1))
                    case a => atomCands(a, bound).filter(_.hi == end)
                  }
                } else { // k == m - 1
                  val st = arr(m - 2).hi + 1
                  atoms(k) match {
                    case AElastic(_, _) => ((st - 1) until t).map(hi => Binding(st, hi, -1))
                    case a => atomCands(a, bound).filter(_.lo == st)
                  }
                }
              choices.filter(b => atomAccepts(atoms(k), b, bound)).map { b =>
                val a2 = arr.clone(); a2(k) = b; a2
              }
            }
          }
          opts.filter(contiguous)
        }

        def rec(j: Int, prevHi: Int): Unit = {
          if (j == unskipped.size) { deriveSkipped().foreach(assignments += _) }
          else {
            val idx = unskipped(j)
            val hasSkippedBetween =
              if (j == 0) idx > 0 else unskipped(j - 1) != idx - 1
            atomCands(atoms(idx), bound).foreach { b =>
              val ok =
                if (j == 0 && idx == 0) true
                else if (j == 0) b.lo >= 0 // leading skipped atoms
                else if (hasSkippedBetween) b.lo >= prevHi + 1
                else b.lo == prevHi + 1
              if (ok) { cur(idx) = b; rec(j + 1, b.hi) }
            }
          }
        }
        if (unskipped.isEmpty) () // cannot happen: plan never skips everything
        else rec(0, -1)
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
        (for { x <- bound.get(a); y <- bound.get(b) }
          yield !x.isEmptySpan && !y.isEmptySpan && x.lo >= y.lo && x.hi <= y.hi).getOrElse(true)
      case CEqC(a, b) =>
        (for { x <- bound.get(a); y <- bound.get(b) }
          yield x.lo == y.lo && x.hi == y.hi).getOrElse(true)
      case CParentOf(p, c) =>
        (for { x <- bound.get(p); y <- bound.get(c) }
          yield x.tid >= 0 && y.tid >= 0 && s.toks(y.tid).head == x.tid).getOrElse(true)
      case CAncestorOf(a, d) =>
        (for { x <- bound.get(a); y <- bound.get(d) }
          yield x.tid >= 0 && y.tid >= 0 && TreeOps.isAncestorOf(s.toks, x.tid, y.tid)).getOrElse(true)
    }

    val varSeq: Seq[Either[VarDef, OutVar]] = nq.varOrder.map { n =>
      defsByName.get(n) match {
        case Some(d) => Left(d)
        case None => Right(nq.freeEnts.find(_.name == n).get)
      }
    }

    def assign(i: Int, bound: Map[String, Binding]): Unit = {
      if (i == varSeq.size) { if (checkConstraints(bound)) results += bound }
      else varSeq(i) match {
        case Left(nd: NodeDef) =>
          candsOfPath(nd.path).foreach(tid => assign(i + 1, bound + (nd.name -> Binding(tid, tid, tid))))
        case Left(sd: SpanDef) =>
          matchSpan(sd, bound).foreach(ext => assign(i + 1, bound ++ ext))
        case Right(ov) =>
          mentions
            .filter(mn => ov.typ == "Entity" || mn.etype == ov.typ)
            .foreach(mn => assign(i + 1, bound + (ov.name -> Binding(mn.lo, mn.hi, -1))))
      }
    }
    assign(0, Map.empty)
    results.result()
  }
}
