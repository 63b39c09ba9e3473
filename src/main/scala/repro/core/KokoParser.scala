package repro.core

import repro.nlp.Vocab

/** Recursive-descent parser for the KOKO language, covering the syntax of
  * the paper's Examples 2.1–2.3, 4.1 and Appendix A.
  *
  * A bare path label resolves as parse label first, then POS tag (see
  * DESIGN.md §5); words must be quoted. Elastic spans accept conditions
  * `^[etype="Entity"]`, `^[regex="..."]`, `^[min="1", max="3"]`.
  */
object KokoParser {
  import Ast._

  // ----------------------------------------------------------- tokenizer
  sealed trait Tk
  final case class TId(s: String) extends Tk
  final case class TStr(s: String) extends Tk
  final case class TNum(d: Double) extends Tk
  final case class TSym(s: String) extends Tk

  final case class ParseError(msg: String) extends RuntimeException(msg)

  def tokenize(src: String): Vector[Tk] = {
    val out = Vector.newBuilder[Tk]
    var i = 0
    val n = src.length
    while (i < n) {
      val c = src(i)
      if (c.isWhitespace) i += 1
      else if (c == '"') {
        val j = src.indexOf('"', i + 1)
        if (j < 0) throw ParseError(s"unterminated string at $i")
        out += TStr(src.substring(i + 1, j))
        i = j + 1
      } else if (c.isLetter || c == '_') {
        var j = i + 1
        while (j < n && (src(j).isLetterOrDigit || src(j) == '_')) j += 1
        out += TId(src.substring(i, j))
        i = j
      } else if (c.isDigit) {
        var j = i + 1
        while (j < n && (src(j).isDigit || src(j) == '.')) j += 1
        // trailing '.' belongs to punctuation, not the number
        var end = j
        if (src.charAt(end - 1) == '.') end -= 1
        val lit = src.substring(i, end)
        out += TNum(lit.toDoubleOption.getOrElse(throw ParseError(s"malformed number '$lit' at $i")))
        i = end
      } else {
        val two = if (i + 1 < n) src.substring(i, i + 2) else ""
        if (two == "//" || two == "[[" || two == "]]") { out += TSym(two); i += 2 }
        else { out += TSym(c.toString); i += 1 }
      }
    }
    out.result()
  }

  private val TextToken = "[A-Za-z0-9_']+|[^A-Za-z0-9_'\\s]".r

  /** Tokenize a condition string / literal span the way sentences are
    * tokenized: words and punctuation marks become separate tokens.
    */
  def textTokens(s: String): Seq[String] = TextToken.findAllIn(s).toSeq

  // -------------------------------------------------------------- parser
  def parse(src: String): KokoQuery = new P(tokenize(src)).parseQuery()

  private final class P(ts: Vector[Tk]) {
    private var pos = 0
    private var elasticCounter = 0

    private def peek: Option[Tk] = if (pos < ts.size) Some(ts(pos)) else None
    private def next(): Tk = {
      if (pos >= ts.size) throw ParseError("unexpected end of query")
      pos += 1; ts(pos - 1)
    }
    private def isKw(t: Tk, kw: String): Boolean = t match {
      case TId(s) => s.equalsIgnoreCase(kw)
      case _ => false
    }
    private def atKw(kw: String): Boolean = peek.exists(isKw(_, kw))
    private def atSym(s: String): Boolean = peek.contains(TSym(s))
    private def expectKw(kw: String): Unit =
      if (!atKw(kw)) throw ParseError(s"expected '$kw' at ${peek}") else pos += 1
    private def expectSym(s: String): Unit =
      if (!atSym(s)) throw ParseError(s"expected '$s' at ${peek}") else pos += 1
    private def acceptSym(s: String): Boolean = { if (atSym(s)) { pos += 1; true } else false }
    private def ident(): String = next() match {
      case TId(s) => s
      case t => throw ParseError(s"expected identifier, got $t")
    }
    private def str(): String = next() match {
      case TStr(s) => s
      case t => throw ParseError(s"expected string, got $t")
    }

    /** A regex literal, compiled here so that a bad one fails the parse. */
    private def regex(re: String): String =
      try { java.util.regex.Pattern.compile(re); re }
      catch {
        case e: java.util.regex.PatternSyntaxException =>
          throw ParseError(s"bad regex \"$re\": ${e.getDescription}")
      }

    private def num(): Double = next() match {
      case TNum(d) => d
      case TStr(s) => s.toDoubleOption.getOrElse(throw ParseError(s"expected number, got \"$s\""))
      case t => throw ParseError(s"expected number, got $t")
    }

    def parseQuery(): KokoQuery = {
      expectKw("extract")
      val outputs = parseOutputs()
      expectKw("from")
      val input = parseInput()
      expectKw("if")
      expectSym("(")
      val (defs, constraints) = parseIfBody()
      expectSym(")")
      val sats = Vector.newBuilder[Satisfying]
      while (atKw("satisfying")) { pos += 1; sats += parseSatisfying() }
      val excluding =
        if (atKw("excluding")) { pos += 1; parseCondList() } else Nil
      if (pos != ts.size) throw ParseError(s"trailing tokens at ${peek}")
      KokoQuery(outputs, input, defs, constraints, sats.result(), excluding)
    }

    private def parseOutputs(): Seq[OutVar] = {
      val out = Vector.newBuilder[OutVar]
      var more = true
      while (more) {
        val n = ident(); expectSym(":"); val t = ident()
        out += OutVar(n, t)
        more = acceptSym(",")
      }
      out.result()
    }

    private def parseInput(): String = {
      val sb = new StringBuilder
      while (!atKw("if")) {
        next() match {
          case TId(s) => sb.append(s)
          case TStr(s) => sb.append(s)
          case TSym(s) => sb.append(s)
          case TNum(d) => sb.append(d)
        }
      }
      sb.toString
    }

    private def parseIfBody(): (Seq[VarDef], Seq[Constraint]) = {
      val defs = Vector.newBuilder[VarDef]
      val cons = Vector.newBuilder[Constraint]
      while (!atSym(")")) {
        if (atSym("/")) {
          // "/ROOT : { ... }" block
          expectSym("/")
          val kw = ident()
          if (!kw.equalsIgnoreCase("root")) throw ParseError(s"expected ROOT block, got $kw")
          expectSym(":"); expectSym("{")
          while (!atSym("}")) {
            defs += parseVarDef()
            acceptSym(",")
          }
          expectSym("}")
        } else if (atSym("(")) {
          expectSym("(")
          val a = ident()
          expectSym(")")
          val op = ident()
          expectSym("(")
          val b = ident()
          expectSym(")")
          op.toLowerCase match {
            case "in" => cons += CIn(a, b)
            case "eq" => cons += CEqC(a, b)
            case other => throw ParseError(s"unknown constraint op '$other'")
          }
        } else throw ParseError(s"unexpected token in if-clause: ${peek}")
      }
      (defs.result(), cons.result())
    }

    private def parseVarDef(): VarDef = {
      val name = ident()
      expectSym("=")
      val atoms = parseAtomSeq()
      atoms match {
        case Seq(APath(p)) => NodeDef(name, p)
        case as => SpanDef(name, as)
      }
    }

    private def parseAtomSeq(): Seq[Atom] = {
      val out = Vector.newBuilder[Atom]
      out += parseAtom()
      while (acceptSym("+")) out += parseAtom()
      out.result()
    }

    private def parseAtom(): Atom = {
      if (acceptSym("(")) {
        val a = parseAtom()
        expectSym(")")
        a
      } else if (atSym("^")) {
        pos += 1
        val conds = if (atSym("[")) parseStepConds() else Nil
        elasticCounter += 1
        AElastic(s"$$e$elasticCounter", conds)
      } else peek match {
        case Some(TStr(s)) => pos += 1; AWords(textTokens(s))
        case Some(TSym("/")) | Some(TSym("//")) => APath(parsePath(None))
        case Some(TId(name)) =>
          pos += 1
          if (atSym(".")) {
            pos += 1
            val m = ident()
            if (!m.equalsIgnoreCase("subtree")) throw ParseError(s"unknown method .$m")
            ASubtree(name)
          } else if (atSym("/") || atSym("//")) APath(parsePath(Some(name)))
          else AVar(name)
        case t => throw ParseError(s"unexpected atom token: $t")
      }
    }

    private def parsePath(anchor: Option[String]): PathExpr = {
      val steps = Vector.newBuilder[Step]
      var more = atSym("/") || atSym("//")
      while (more) {
        val axis = next() match {
          case TSym("/") => Child
          case TSym("//") => Desc
          case t => throw ParseError(s"expected axis, got $t")
        }
        val label: LabelSpec = next() match {
          case TSym("*") => LStar
          case TStr(w) => LWord(w)
          case TId(l) =>
            if (Vocab.ParseLabels.contains(l)) LParse(l)
            else if (Vocab.PosTags.contains(l)) LPos(l)
            else throw ParseError(s"unknown label '$l' (quote words)")
          case t => throw ParseError(s"expected label, got $t")
        }
        val conds = if (atSym("[")) parseStepConds() else Nil
        steps += Step(axis, label, conds)
        more = atSym("/") || atSym("//")
      }
      PathExpr(anchor, steps.result())
    }

    private def parseStepConds(): Seq[StepCond] = {
      expectSym("[")
      val out = Vector.newBuilder[StepCond]
      var more = true
      while (more) {
        acceptSym("@")
        val attr = ident().toLowerCase
        if (!Set("pos", "text", "etype", "label", "regex", "min", "max").contains(attr))
          throw ParseError(s"unknown step condition attribute '$attr'")
        expectSym("=")
        val v = next() match {
          case TStr(s) => s
          case TNum(d) => if (d == d.toLong) d.toLong.toString else d.toString
          case t => throw ParseError(s"expected condition value, got $t")
        }
        attr match {
          case "regex" => regex(v)
          case "min" | "max" if !v.toIntOption.exists(_ >= 0) =>
            throw ParseError(s"$attr must be a non-negative integer, got \"$v\"")
          case _ => ()
        }
        out += StepCond(attr, v)
        more = acceptSym(",")
      }
      expectSym("]")
      out.result()
    }

    private def parseSatisfying(): Satisfying = {
      val v = ident()
      val conds = parseCondList()
      val threshold =
        if (atKw("with")) { pos += 1; expectKw("threshold"); num() }
        else 0.2 // default used when the paper omits the clause (Example 2.2)
      Satisfying(v, conds, threshold)
    }

    private def parseCondList(): Seq[SatCond] = {
      val out = Vector.newBuilder[SatCond]
      expectSym("(")
      out += parseSatCond()
      expectSym(")")
      while (atKw("or")) {
        pos += 1
        expectSym("(")
        out += parseSatCond()
        expectSym(")")
      }
      out.result()
    }

    private def parseWeight(): Double =
      if (acceptSym("{")) { val w = num(); expectSym("}"); w } else 1.0

    private def parseSatCond(): SatCond = {
      if (atKw("str")) {
        pos += 1
        expectSym("(")
        val v = ident()
        expectSym(")")
        peek match {
          case Some(t) if isKw(t, "contains") => pos += 1; val s = str(); CContains(v, s, substring = false, parseWeight())
          case Some(t) if isKw(t, "mentions") => pos += 1; val s = str(); CContains(v, s, substring = true, parseWeight())
          case Some(t) if isKw(t, "matches") => pos += 1; val s = str(); CMatches(v, regex(s), parseWeight())
          case Some(TSym("~")) => pos += 1; val s = str(); CSimilar(v, s, parseWeight())
          case Some(t) if isKw(t, "in") =>
            pos += 1; expectKw("dict"); expectSym("(")
            val d = str(); expectSym(")")
            if (!Vocab.Dicts.contains(d)) throw ParseError(s"unknown dictionary \"$d\"")
            CDict(v, d, parseWeight())
          case t => throw ParseError(s"unknown str(...) condition at $t")
        }
      } else peek match {
        case Some(TStr(s)) =>
          pos += 1
          val v = ident()
          CAdjacent(v, s, before = true, parseWeight())
        case Some(TSym("[[")) =>
          pos += 1
          val d = str()
          expectSym("]]")
          val v = ident()
          CDescriptor(v, textTokens(d), after = false, parseWeight())
        case Some(TId(v)) =>
          pos += 1
          peek match {
            case Some(TStr(s)) => pos += 1; CAdjacent(v, s, before = false, parseWeight())
            case Some(t) if isKw(t, "near") => pos += 1; val s = str(); CNear(v, s, parseWeight())
            case Some(t) if isKw(t, "similarto") => pos += 1; val s = str(); CSimilar(v, s, parseWeight())
            case Some(TSym("[[")) =>
              pos += 1
              val d = str()
              expectSym("]]")
              CDescriptor(v, textTokens(d), after = true, parseWeight())
            case t => throw ParseError(s"unknown condition after variable '$v': $t")
          }
        case t => throw ParseError(s"unexpected condition token: $t")
      }
    }
  }
}
