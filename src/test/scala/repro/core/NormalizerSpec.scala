package repro.core

import org.scalatest.funsuite.AnyFunSuite

class NormalizerSpec extends AnyFunSuite {
  import Ast._

  private def norm(src: String) = Normalizer.normalize(KokoParser.parse(src))

  test("Example 4.1: relative paths expand to absolute form") {
    val nq = norm(
      """extract a:Entity, d:Str from "input.txt" if (
        | /ROOT:{ v = //verb[text="ate"], b = v/dobj, c = b//"delicious", d = (b.subtree) } )""".stripMargin)
    val byName = nq.nodeDefs.map(d => d.name -> d.path).toMap
    assert(byName("b") == PathExpr(None, Seq(
      Step(Desc, LPos("verb"), Seq(StepCond("text", "ate"))),
      Step(Child, LParse("dobj"), Nil))))
    assert(byName("c").steps.size == 3)
    assert(byName("c").steps(2) == Step(Desc, LWord("delicious"), Nil))
  }

  test("Example 4.1: parentOf and ancestorOf constraints are derived") {
    val nq = norm(
      """extract a:Entity from f if ( /ROOT:{ v = //verb, b = v/dobj, c = b//"delicious" } )""")
    assert(nq.constraints.contains(CParentOf("v", "b")))
    assert(nq.constraints.contains(CAncestorOf("b", "c")))
  }

  test("multi-step relative path derives ancestorOf, not parentOf") {
    val nq = norm("""extract a:Entity from f if ( /ROOT:{ v = //verb, b = v/dobj/det } )""")
    assert(nq.constraints.contains(CAncestorOf("v", "b")))
    assert(!nq.constraints.exists { case CParentOf("v", "b") => true; case _ => false })
  }

  test("elastic variables get fresh names inside span defs") {
    val nq = norm("""extract a:Entity from f if ( /ROOT:{ e = a + ^ + "x" + ^ + a } )""")
    val elastics = nq.spanDefs.head.atoms.collect { case AElastic(n, _) => n }
    assert(elastics.size == 2 && elastics.distinct.size == 2)
  }

  test("outputs not defined in the block become free entity variables") {
    val nq = norm("""extract a:Person, b:Date from f if ( /ROOT:{ v = //verb } )""")
    assert(nq.freeEnts == Seq(OutVar("a", "Person"), OutVar("b", "Date")))
  }

  test("an output of type Str must be defined in the block") {
    intercept[KokoParser.ParseError](
      norm("""extract d:Str from f if ( /ROOT:{ v = //verb } )"""))
  }

  test("binding order: node defs, then free entities, then span defs") {
    val nq = norm(
      """extract a:Person, b:Str from f if (
        | /ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b } )""".stripMargin)
    assert((nq.nodeDefs.map(_.name) ++ nq.freeEnts.map(_.name) ++ nq.spanDefs.map(_.name)) ==
      Seq("v", "p", "a", "b", "c"))
  }

  test("anchoring at an undefined variable is rejected") {
    intercept[KokoParser.ParseError](
      norm("""extract a:Entity from f if ( /ROOT:{ b = z/dobj } )"""))
  }

  test("span-def atoms with relative paths are resolved to absolute") {
    val nq = norm("""extract x:Entity from f if ( /ROOT:{ v = //verb, s = v/dobj + ^ } )""")
    val APath(p) = nq.spanDefs.head.atoms.head: @unchecked
    assert(p.isAbsolute && p.steps.size == 2)
  }

  test("neededVars covers outputs, satisfying and excluding variables") {
    val nq = norm(
      """extract x:Entity from f if ( /ROOT:{ v = //verb } )
        |satisfying v (str(v) ~ "born" {1}) with threshold 0.5
        |excluding (str(x) matches "Z")""".stripMargin)
    assert(nq.neededVars.toSet == Set("x", "v"))
  }

  private def rejects(src: String, variable: String): Unit = {
    val e = intercept[KokoParser.ParseError](norm(src))
    assert(e.getMessage.contains(s"'$variable'"), e.getMessage)
  }

  test("a satisfying clause on a variable the query never binds is rejected") {
    rejects("""extract x:Entity from f if () satisfying z (str(z) contains "Cafe" {1})""", "z")
  }

  test("an excluding condition on a variable the query never binds is rejected") {
    rejects("""extract x:Entity from f if () excluding (str(z) matches "Z")""", "z")
  }

  test("a second satisfying clause on one variable is rejected") {
    rejects(
      """extract x:Entity from f if ()
        |satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
        |satisfying x (str(x) contains "Nothing" {1}) with threshold 0.5""".stripMargin, "x")
  }

  test("a condition on another variable inside a satisfying clause is rejected") {
    val src = """extract x:Entity from f if () satisfying x (str(z) contains "Cafe" {1}) with threshold 0.5"""
    rejects(src, "z")
    rejects(src, "x")
  }

  test("an in or eq constraint on a variable the query never binds is rejected") {
    rejects("""extract a:Entity from f if ( /ROOT:{ v = //verb, b = v/dobj } (b) in (zz) )""", "zz")
    rejects("""extract a:Entity from f if ( /ROOT:{ v = //verb, b = v/dobj } (zz) eq (b) )""", "zz")
  }

  test("a span atom that names an undefined variable is rejected") {
    rejects("""extract x:Str from f if ( /ROOT:{ a = //verb, x = a + zz } )""", "zz")
  }

  test("a span atom that names a span defined later is rejected; defined earlier, it is accepted") {
    rejects("""extract x:Str from f if ( /ROOT:{ a = //verb, x = a + y, y = ^[max="1"] } )""", "y")
    val nq = norm("""extract x:Str from f if ( /ROOT:{ a = //verb, y = ^[max="1"], x = a + y } )""")
    assert(nq.spanDefs.map(_.name) == Seq("y", "x"))
  }

  test(".subtree of a span, an entity or an undefined variable is rejected") {
    rejects("""extract x:Str from f if ( /ROOT:{ a = //verb, y = a + ^, x = y.subtree } )""", "y")
    rejects("""extract x:Str, e:Entity from f if ( /ROOT:{ a = //verb, x = e.subtree } )""", "e")
    rejects("""extract x:Str from f if ( /ROOT:{ a = //verb, x = zz.subtree } )""", "zz")
    assert(norm("""extract x:Str from f if ( /ROOT:{ a = //verb, x = a.subtree } )""").spanDefs.size == 1)
  }
}
