package repro.nlp

import java.util.Locale
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite

class CaseFoldSpec extends AnyFunSuite {

  /** The folding rule, one code point at a time. */
  private def perCodePoint(w: String): String = {
    val sb = new java.lang.StringBuilder(w.length)
    w.codePoints().forEach(c => sb.appendCodePoint(Character.toLowerCase(Character.toUpperCase(c))))
    sb.toString
  }

  test("CaseFold is the per-code-point rule on ASCII and non-ASCII words under a Turkish locale (scalacheck)") {
    val piece = Gen.frequency(
      6 -> Gen.choose('A', 'Z').map(_.toString),
      6 -> Gen.choose('a', 'z').map(_.toString),
      2 -> Gen.oneOf("0", "9", "-", "'", " ", "@", "[", "`", "{", "\u007f"),
      3 -> Gen.oneOf("İ", "ı", "ß", "ẞ", "I", "i"),
      2 -> Gen.oneOf("É", "é", "Σ", "ς", "ſ", "K", "Ж"),
      2 -> Gen.oneOf("𐐀", "𐐨", "😀"))
    val words = Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, piece)).map(_.mkString)
    val saved = Locale.getDefault
    try {
      Locale.setDefault(Locale.forLanguageTag("tr"))
      val prop = Prop.forAllNoShrink(words) { w =>
        (CaseFold(w) == perCodePoint(w)) :| s"'$w' (${w.map(_.toInt).mkString(",")})"
      }
      val res = Test.check(Test.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(43L), prop)
      assert(res.passed, Pretty.pretty(res))
    } finally Locale.setDefault(saved)
  }
}
