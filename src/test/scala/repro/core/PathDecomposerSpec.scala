package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PathDecomposerSpec extends AnyFunSuite {
  import Ast._

  private def path(src: String): PathExpr = {
    val q = KokoParser.parse(s"""extract x:Str from f if ( /ROOT:{ x = $src } )""")
    Normalizer.normalize(q).nodeDefs.head.path
  }

  test("Example 4.2: decomposition of //verb[text=\"ate\"]/dobj//\"delicious\"") {
    val d = PathDecomposer.decompose(path("""//verb[text="ate"]/dobj//"delicious""""))
    assert(d.pl == Seq(Desc -> "*", Child -> "dobj", Desc -> "*"))
    assert(d.pos == Seq(Desc -> "verb", Child -> "*", Desc -> "*"))
    assert(d.words == Seq(0 -> "ate", 2 -> "delicious"))
    assert(d.lastIsWord)
  }

  test("conditions contribute to the decomposed paths") {
    val d = PathDecomposer.decompose(path("""//*[@pos="noun", text="pie"]"""))
    assert(d.pos == Seq(Desc -> "noun"))
    assert(d.pl == Seq(Desc -> "*"))
    assert(d.words == Seq(0 -> "pie"))
  }

  test("pure parse-label path: POS path is trivial") {
    val d = PathDecomposer.decompose(path("/root/dobj/det"))
    assert(d.pl == Seq(Child -> "root", Child -> "dobj", Child -> "det"))
    assert(d.pos.forall(_._2 == "*") && d.words.isEmpty)
    assert(!d.lastIsWord)
  }

  test("domination (§4.2.1): prefix with identical conditions") {
    val p = path("""//verb[text="ate"]""")
    val q = path("""//verb[text="ate"]/dobj""")
    assert(PathDecomposer.dominatedBy(p, q))
    assert(!PathDecomposer.dominatedBy(q, p))
  }

  test("domination requires identical conditions, modulo order") {
    val p1 = path("""//verb[text="ate"]""")
    val p2 = path("""//verb/dobj""")
    assert(!PathDecomposer.dominatedBy(p1, p2)) // conds differ on step 0
    val c1 = path("""//dobj[pos="noun", etype="Person"]""")
    val c2 = path("""//dobj[etype="Person", pos="noun"]/det""")
    assert(PathDecomposer.dominatedBy(c1, c2))
  }

  test("Example 4.1: the fully expanded path is the only dominant one") {
    val nq = Normalizer.normalize(KokoParser.parse(
      """extract a:Entity from f if (
        | /ROOT:{ v = //verb[text="ate"], b = v/dobj, c = b//"delicious" } )""".stripMargin))
    val dom = PathDecomposer.dominantOf(nq.nodeDefs.map(d => d.name -> d.path))
    assert(dom == Map("v" -> "c", "b" -> "c", "c" -> "c"))
  }

  test("independent paths are each their own dominant") {
    val nq = Normalizer.normalize(KokoParser.parse(
      """extract a:Entity from f if ( /ROOT:{ v = //verb, n = //nsubj } )"""))
    val dom = PathDecomposer.dominantOf(nq.nodeDefs.map(d => d.name -> d.path))
    assert(dom == Map("v" -> "v", "n" -> "n"))
  }

  test("axis mismatch breaks domination") {
    val p = path("//verb")
    val q = path("/verb/dobj")
    assert(!PathDecomposer.dominatedBy(p, q))
  }
}
