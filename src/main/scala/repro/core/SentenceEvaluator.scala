package repro.core

import java.util.regex.Pattern
import repro.nlp.{Sent, TreeOps}

/** Per-sentence evaluation of the extract clause (§4.3).
  *
  * A query's extract clause is compiled once ([[Compiled]], kept by the
  * normalized query as `NormQuery.evaluator`): its variables, atoms and
  * constraints are numbered, and a sentence's bindings are arrays indexed
  * by variable. Node variables iterate over the token ids they are given —
  * DPLI's bindings in the engine (§4.2.2), every token in [[NaiveKoko]] —
  * and each one is validated with [[PathMatcher]], because DPLI's bindings
  * are a *complete* but over-approximate candidate set (§4.2.2
  * Discussion). Span definitions are horizontal conditions matched by
  * aligning atoms. With `useGsp = true` the high-cost atoms selected by
  * [[SkipPlan]] (costed from the validated candidate counts, once per span
  * definition and sentence) are not enumerated but aligned from their
  * neighbours' bindings; with `useGsp = false` every atom — including
  * elastic spans, which have `t(t+1)/2` candidate spans — is enumerated by
  * nested loops in definition order, with contiguity checked only at the
  * end (the KOKO&noGSP baseline of Table 1).
  *
  * A sentence whose evaluation enumerates more than [[MaxWork]] bindings
  * and atom candidates fails with an error naming its `sid`.
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

  /** The most bindings and atom candidates the evaluation of one sentence
    * may enumerate: about ten times the largest count measured (30.2
    * million, noGSP in the GSP == noGSP property; DESIGN.md §3). An elastic
    * span has O(t²) candidates, so noGSP with two of them grows as t⁴.
    */
  val MaxWork: Long = 300000000L

  def valueOf(s: Sent, b: Binding): String =
    if (b.hi < b.lo) ""
    else if (b.hi == b.lo) s.toks(b.lo).word
    else {
      val sb = new java.lang.StringBuilder(s.toks(b.lo).word)
      var i = b.lo + 1
      while (i <= b.hi) { sb.append(' ').append(s.toks(i).word); i += 1 }
      sb.toString
    }

  /** One sentence's extract tuples (§4.3): for every GSP binding, the
    * values of the variables in `nq.neededVars` (a binding binds them all).
    */
  def extract(nq: NormQuery, s: Sent, gspNs: Long => Unit = _ => ()): Seq[Cand] =
    nq.evaluator.extract(s, None, gspNs)

  def evaluate(
      nq: NormQuery,
      s: Sent,
      useGsp: Boolean,
      gspNs: Long => Unit = _ => ()): Seq[Map[String, Binding]] =
    nq.evaluator.evaluate(s, useGsp, None, gspNs)

  def compile(nq: NormQuery): Compiled = new Compiled(nq)

  /** A compiled span atom; variables are numbers. */
  private sealed trait CAtom
  private final case class KVar(v: Int) extends CAtom
  private final case class KSubtree(v: Int) extends CAtom
  /** An atom whose candidates do not depend on the bindings: computed once
    * per sentence, into cache slot `slot` (equal atoms share one).
    */
  private sealed trait Cached extends CAtom { def slot: Int }
  private final case class KPath(m: PathMatcher.Compiled, slot: Int) extends Cached
  private final case class KWords(words: Seq[String], slot: Int) extends Cached
  private final case class KElastic(v: Int, test: Elastic, slot: Int) extends Cached

  /** An elastic span's conditions (`etype`, `regex`, `min`, `max`). */
  private final class Elastic(conds: Seq[StepCond]) {
    private val etypes = conds.collect { case StepCond("etype", v) => v }.toArray
    private val regexes = conds.collect { case StepCond("regex", re) => Pattern.compile(re) }.toArray
    private val min = conds.collect { case StepCond("min", v) => v.toInt }.maxOption.getOrElse(Int.MinValue)
    private val max = conds.collect { case StepCond("max", v) => v.toInt }.minOption.getOrElse(Int.MaxValue)

    def accepts(r: Run, lo: Int, hi: Int): Boolean = {
      val len = hi - lo + 1
      len >= min && len <= max &&
        etypes.forall(typ => hi >= lo && r.mentionEnd(lo) == hi && (typ == "Entity" || r.s.toks(lo).etype == typ)) &&
        (regexes.isEmpty || { val v = valueOf(r.s, Binding(lo, hi, -1)); regexes.forall(_.matcher(v).matches()) })
    }
  }

  /** A span definition: its variable, its atoms as written (for the skip
    * plan's cost model) and compiled.
    */
  private final case class SpanPlan(v: Int, src: Seq[Atom], atoms: Array[CAtom]) {
    /** Per atom, its elastic variable, or -1. */
    val elasticVar: Array[Int] = atoms.map { case KElastic(e, _, _) => e; case _ => -1 }
  }

  /** A constraint over variables `a` and `b`. */
  private final case class Check(c: Constraint, a: Int, b: Int)

  /** A query's extract clause compiled once: node definitions, free entity
    * variables and span definitions bind in that order, one binder level
    * each, and a constraint is checked at the level that last writes one
    * of its variables. Immutable; each sentence runs in its own [[Run]].
    */
  final class Compiled private[SentenceEvaluator] (nq: NormQuery) {
    /** Variables, numbered by first definition; a name defined twice has one
      * number, and the later definition's binding wins.
      */
    private[SentenceEvaluator] val names: Array[String] =
      (nq.nodeDefs.map(_.name) ++ nq.freeEnts.map(_.name) ++
        nq.spanDefs.flatMap(d => d.atoms.collect { case AElastic(n, _) => n } :+ d.name)).distinct.toArray
    private val index = names.zipWithIndex.toMap
    private val needed = nq.neededVars.map(index).toArray

    private[SentenceEvaluator] val nodeVar = nq.nodeDefs.map(d => index(d.name)).toArray
    private[SentenceEvaluator] val nodePath = nq.nodeDefs.map(d => new PathMatcher.Compiled(d.path)).toArray
    private[SentenceEvaluator] val entVar = nq.freeEnts.map(o => index(o.name)).toArray
    private[SentenceEvaluator] val entType = nq.freeEnts.map(_.typ).toArray

    private val slots = scala.collection.mutable.LinkedHashMap[Atom, Int]()
    private def slot(a: Atom): Int = slots.getOrElseUpdate(a, slots.size)
    private[SentenceEvaluator] val spans: Array[SpanPlan] = nq.spanDefs.map { d =>
      SpanPlan(index(d.name), d.atoms, d.atoms.map {
        case AVar(n) => KVar(index(n))
        case ASubtree(n) => KSubtree(index(n))
        case a @ APath(p) => KPath(new PathMatcher.Compiled(p), slot(a))
        case a @ AWords(ws) => KWords(ws, slot(a))
        case AElastic(n, conds) => KElastic(index(n), new Elastic(conds), slot(AElastic("", conds)))
      }.toArray)
    }.toArray
    private[SentenceEvaluator] val nSlots = slots.size

    private[SentenceEvaluator] val nLevels = nodeVar.length + entVar.length + spans.length
    /** Constraints to check after each binder level. */
    private[SentenceEvaluator] val checks: Array[Array[Check]] = {
      val writes = nodeVar.map(Seq(_)) ++ entVar.map(Seq(_)) ++ spans.map(sp => sp.elasticVar.filter(_ >= 0).toSeq :+ sp.v)
      def lastWriter(v: Int) = writes.lastIndexWhere(_.contains(v))
      val cs = nq.constraints.map {
        case c @ CIn(a, b) => Check(c, index(a), index(b))
        case c @ CEqC(a, b) => Check(c, index(a), index(b))
        case c @ CParentOf(a, b) => Check(c, index(a), index(b))
        case c @ CAncestorOf(a, b) => Check(c, index(a), index(b))
      }
      Array.tabulate(nLevels)(l => cs.filter(c => math.max(lastWriter(c.a), lastWriter(c.b)) == l).toArray)
    }

    /** One sentence's extract tuples; `tokens(i)`, when given, holds the only
      * token ids node definition `i` may bind.
      */
    def extract(s: Sent, tokens: Option[Array[Array[Int]]], gspNs: Long => Unit = _ => ()): Seq[Cand] = {
      val out = Seq.newBuilder[Cand]
      new Run(this, s, useGsp = true, tokens, gspNs).run { bound =>
        var vals = Map.empty[String, String]
        needed.foreach(v => vals = vals.updated(names(v), valueOf(s, bound(v))))
        out += Cand(s.doc, s.sid, vals)
      }
      out.result()
    }

    /** One sentence's bindings, each a map from every variable to its value. */
    def evaluate(
        s: Sent,
        useGsp: Boolean,
        tokens: Option[Array[Array[Int]]],
        gspNs: Long => Unit = _ => ()): Seq[Map[String, Binding]] = {
      val out = Seq.newBuilder[Map[String, Binding]]
      new Run(this, s, useGsp, tokens, gspNs).run(bound => out += names.indices.map(v => names(v) -> bound(v)).toMap)
      out.result()
    }
  }

  /** The evaluation of one sentence: its bindings, its atoms' candidates
    * (cached per slot), skip plans and work count.
    */
  private final class Run(
      c: Compiled,
      val s: Sent,
      useGsp: Boolean,
      tokens: Option[Array[Array[Int]]],
      gspNs: Long => Unit) {
    private val t = s.t
    private val bound = new Array[Binding](c.names.length)
    private val cache = new Array[Array[Binding]](c.nSlots)
    /** Per span definition, its skip plan (`skip(i)` for atom `i`). */
    private val plans = new Array[Array[Boolean]](c.spans.length)
    private val curs = c.spans.map(sp => new Array[Binding](sp.atoms.length))
    private var work = 0L
    private var emit: Array[Binding] => Unit = _

    /** The one place that counts enumeration work. */
    private def tick(): Unit = {
      work += 1
      if (work > MaxWork)
        throw new IllegalArgumentException(s"sentence ${s.sid} (document ${s.doc}): the extract clause " +
          s"enumerated more than $MaxWork bindings and atom candidates")
    }

    private lazy val subtrees = TreeOps.spans(s.toks)
    private lazy val mentions =
      TreeOps.mentionRanges(t, s.toks(_).eid).map { case (lo, hi) => Binding(lo, hi, -1) }.toArray
    /** Per token, the last token of the mention starting there; -1 if none does. */
    lazy val mentionEnd: Array[Int] = {
      val end = Array.fill(t)(-1)
      mentions.foreach(m => end(m.lo) = m.hi)
      end
    }

    private def memo(cache: Array[Array[Binding]], i: Int)(f: => Array[Binding]): Array[Binding] = {
      if (cache(i) == null) cache(i) = f
      cache(i)
    }

    /** Node definition `i`'s validated candidates: its given tokens, or every token. */
    private val nodeCands = new Array[Array[Binding]](c.nodeVar.length)
    private def nodeCandsOf(i: Int): Array[Binding] = memo(nodeCands, i) {
      tokens.fold(Array.range(0, t))(_(i)).filter(c.nodePath(i).matches(s, _)).map(tid => Binding(tid, tid, tid))
    }

    private val entCands = new Array[Array[Binding]](c.entVar.length)
    private def entCandsOf(j: Int): Array[Binding] = memo(entCands, j) {
      mentions.filter(b => c.entType(j) == "Entity" || s.toks(b.lo).etype == c.entType(j))
    }

    private def cached(a: Cached): Array[Binding] = memo(cache, a.slot) {
      a match {
        case KPath(m, _) => Array.range(0, t).filter(m.matches(s, _)).map(i => Binding(i, i, i))
        case KWords(ws, _) => Aggregator.occurrences(ws, s).map(i => Binding(i, i + ws.size - 1, -1)).toArray
        case KElastic(_, test, _) =>
          val b = Array.newBuilder[Binding]
          (0 to t).foreach(lo => if (test.accepts(this, lo, lo - 1)) b += Binding(lo, lo - 1, -1)) // empty spans
          (0 until t).foreach(lo => (lo until t).foreach(hi => if (test.accepts(this, lo, hi)) b += Binding(lo, hi, -1)))
          b.result()
      }
    }

    private def cands(a: CAtom): Array[Binding] = a match {
      case KVar(v) => Array(bound(v))
      case KSubtree(v) => val tid = bound(v).tid; Array(Binding(subtrees.lo(tid), subtrees.hi(tid), -1))
      case a: Cached => cached(a)
    }

    private def holds(k: Check): Boolean = {
      val (x, y) = (bound(k.a), bound(k.b))
      k.c match {
        case _: CIn => !x.isEmptySpan && !y.isEmptySpan && x.lo >= y.lo && x.hi <= y.hi
        case _: CEqC => x.lo == y.lo && x.hi == y.hi
        case _: CParentOf => s.toks(y.tid).head == x.tid
        case _: CAncestorOf => TreeOps.isAncestorOf(s.toks, x.tid, y.tid)
      }
    }

    /** Calls `f` with the bindings array (valid only during the call) once
      * per binding of every variable that satisfies the constraints.
      */
    def run(f: Array[Binding] => Unit): Unit = { emit = f; assign(0) }

    private def next(level: Int): Unit = {
      val ks = c.checks(level)
      var i = 0
      while (i < ks.length && holds(ks(i))) i += 1
      if (i == ks.length) assign(level + 1)
    }

    private def bindEach(v: Int, level: Int, cs: Array[Binding]): Unit = {
      var i = 0
      while (i < cs.length) { tick(); bound(v) = cs(i); next(level); i += 1 }
    }

    private def assign(level: Int): Unit = {
      val nNodes = c.nodeVar.length
      val nEnts = c.entVar.length
      if (level == c.nLevels) emit(bound)
      else if (level < nNodes) bindEach(c.nodeVar(level), level, nodeCandsOf(level))
      else if (level < nNodes + nEnts) bindEach(c.entVar(level - nNodes), level, entCandsOf(level - nNodes))
      else matchSpan(level - nNodes - nEnts, level)
    }

    /** Every consistent atom assignment of span definition `k`, each bound
      * (its elastic variables and the span itself) before the next level.
      */
    private def matchSpan(k: Int, level: Int): Unit = {
      val sp = c.spans(k)
      val atoms = sp.atoms
      val m = atoms.length
      val cur = curs(k)

      def done(): Unit = {
        var i = 0
        while (i < m) { if (sp.elasticVar(i) >= 0) bound(sp.elasticVar(i)) = cur(i); i += 1 }
        bound(sp.v) = Binding(cur(0).lo, cur(m - 1).hi, -1)
        next(level)
      }

      if (useGsp) {
        if (plans(k) == null) {
          val t0 = System.nanoTime()
          def count(i: Int) = atoms(i) match { case a: Cached => cached(a).length; case _ => 1 }
          plans(k) = SkipPlan.plan(Array.tabulate(m)(i => SkipPlan.cost(sp.src(i), t, _ => count(i))))
          gspNs(System.nanoTime() - t0)
        }
        val skip = plans(k)
        val (skipped, unskipped) = atoms.indices.partition(skip)

        /** A skipped atom's bindings, aligned from its neighbours (which the
          * plan never skips): an end touching a neighbour is pinned to it,
          * and a free end — only at the span's first or last atom — ranges
          * over the sentence. Given the unskipped atoms, each skipped atom's
          * choices are independent: take their cartesian product.
          */
        def fill(i: Int): Unit =
          if (i == skipped.length) done()
          else {
            val j = skipped(i)
            val (loFrom, loTo) = if (j > 0) (cur(j - 1).hi + 1, cur(j - 1).hi + 1) else (0, cur(j + 1).lo)
            val (hiFrom, hiTo) = if (j < m - 1) (cur(j + 1).lo - 1, cur(j + 1).lo - 1) else (cur(j - 1).hi, t - 1)
            atoms(j) match {
              case KElastic(_, test, _) =>
                var lo = loFrom
                while (lo <= loTo) {
                  var hi = math.max(hiFrom, lo - 1)
                  while (hi <= hiTo) {
                    tick()
                    if (test.accepts(this, lo, hi)) { cur(j) = Binding(lo, hi, -1); fill(i + 1) }
                    hi += 1
                  }
                  lo += 1
                }
              case a =>
                cands(a).foreach { b =>
                  tick()
                  if (b.lo >= loFrom && b.lo <= loTo && b.hi >= hiFrom && b.hi <= hiTo) { cur(j) = b; fill(i + 1) }
                }
            }
          }

        def rec(i: Int, prevHi: Int): Unit =
          if (i == unskipped.length) fill(0)
          else {
            val j = unskipped(i)
            val afterSkip = j > 0 && skip(j - 1)
            cands(atoms(j)).foreach { b =>
              tick()
              if (j == 0 || (if (afterSkip) b.lo > prevHi else b.lo == prevHi + 1)) { cur(j) = b; rec(i + 1, b.hi) }
            }
          }
        rec(0, -1)
      } else {
        // noGSP: nested loops over every atom in definition order, with
        // consistency (contiguity) checked only on complete assignments.
        def recAll(j: Int): Unit =
          if (j == m) {
            var i = 0
            while (i < m - 1 && cur(i).hi + 1 == cur(i + 1).lo) i += 1
            if (i >= m - 1) done()
          } else cands(atoms(j)).foreach { b => tick(); cur(j) = b; recAll(j + 1) }
        recAll(0)
      }
    }
  }
}
