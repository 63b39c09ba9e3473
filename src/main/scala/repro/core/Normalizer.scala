package repro.core

/** Query normalization (§4.1): path expressions are expanded to their
  * absolute form and the constraints among variables are made explicit
  * (`b = a/dobj` adds `a parentOf b`; `c = b//"x"` adds `b ancestorOf c`).
  */
object Normalizer {
  import Ast._

  /** A normalized query. All node-variable paths are absolute; span
    * definitions have named elastic variables; `freeEnts` are the output
    * variables not defined in the block (they bind to entity mentions).
    */
  final case class NormQuery(
      outputs: Seq[OutVar],
      input: String,
      nodeDefs: Seq[NodeDef],
      spanDefs: Seq[SpanDef],
      freeEnts: Seq[OutVar],
      constraints: Seq[Constraint],
      satisfying: Seq[Satisfying],
      excluding: Seq[SatCond]) {

    /** Variables whose values feed outputs or satisfying/excluding. */
    val neededVars: Seq[String] =
      (outputs.map(_.name) ++ satisfying.map(_.v) ++ excluding.map(_.v)).distinct

    /** The extract clause compiled once per query (and once per
      * deserialized copy: it is not shipped with the query).
      */
    @transient lazy val evaluator: SentenceEvaluator.Compiled = SentenceEvaluator.compile(this)
  }

  def normalize(q: KokoQuery): NormQuery = {
    val abs = scala.collection.mutable.LinkedHashMap[String, PathExpr]()
    val derived = Vector.newBuilder[Constraint]
    val nodeDefs = Vector.newBuilder[NodeDef]
    val spanDefs = Vector.newBuilder[SpanDef]

    def resolve(p: PathExpr, forVar: Option[String]): PathExpr = (p.anchor match {
      case None => p
      case Some(a) =>
        val base = abs.getOrElse(a,
          throw KokoParser.ParseError(s"path anchored at undefined variable '$a'"))
        forVar.foreach { v =>
          if (p.steps.sizeIs == 1 && p.steps.head.axis == Child) derived += CParentOf(a, v)
          else derived += CAncestorOf(a, v)
        }
        PathExpr(None, base.steps ++ p.steps)
    }) match {
      case ap if ap.steps.sizeIs > PathMatcher.MaxSteps =>
        throw KokoParser.ParseError(s"a path of ${ap.steps.size} steps; at most ${PathMatcher.MaxSteps} are allowed")
      case ap => ap
    }

    q.defs.foreach {
      case NodeDef(name, path) =>
        val ap = resolve(path, Some(name))
        abs(name) = ap
        nodeDefs += NodeDef(name, ap)
      case SpanDef(name, atoms) =>
        val resolved = atoms.map {
          case APath(p) => APath(resolve(p, None))
          case a => a
        }
        spanDefs += SpanDef(name, resolved)
    }

    val defNames = q.defs.map(_.name).toSet
    val freeEnts = q.outputs.filterNot(o => defNames.contains(o.name))
    freeEnts.find(_.typ == "Str").foreach { o =>
      throw KokoParser.ParseError(s"output ${o.name}:Str is not defined in the extract block")
    }
    // Bind as the evaluator does (node variables, free entities, then each
    // span in order): an atom or constraint reads only a bound variable.
    val nodeVars = q.defs.collect { case NodeDef(n, _) => n }.toSet
    val bound = q.defs.collect { case d: SpanDef => d }.foldLeft(nodeVars ++ freeEnts.map(_.name)) { (b, d) =>
      d.atoms.foreach {
        case AVar(v) if !b(v) => throw KokoParser.ParseError(s"span '${d.name}' reads variable '$v' before it is bound")
        case ASubtree(v) if !nodeVars(v) => throw KokoParser.ParseError(s"subtree of '$v', which is not a node variable")
        case _ => ()
      }
      b + d.name
    }
    q.constraints.flatMap { case CIn(a, c) => Seq(a, c); case CEqC(a, c) => Seq(a, c); case _ => Nil }
      .find(!bound(_)).foreach(v => throw KokoParser.ParseError(s"constraint on unbound variable '$v'"))
    // A scored variable must be bound; a row reports one score per variable.
    val satVars = q.satisfying.map(_.v)
    (satVars ++ q.excluding.map(_.v)).find(!bound(_)).foreach { v =>
      throw KokoParser.ParseError(s"satisfying/excluding clause on unbound variable '$v'")
    }
    satVars.diff(satVars.distinct).headOption.foreach { v =>
      throw KokoParser.ParseError(s"more than one satisfying clause on variable '$v'")
    }
    // A satisfying clause scores its own variable's value.
    for (sat <- q.satisfying; c <- sat.conds.find(_.v != sat.v))
      throw KokoParser.ParseError(s"condition on variable '${c.v}' in the satisfying clause of variable '${sat.v}'")
    NormQuery(q.outputs, q.input, nodeDefs.result(), spanDefs.result(), freeEnts,
      q.constraints ++ derived.result(), q.satisfying, q.excluding)
  }
}
