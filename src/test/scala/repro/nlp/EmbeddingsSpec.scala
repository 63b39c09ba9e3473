package repro.nlp

import org.scalatest.funsuite.AnyFunSuite

class EmbeddingsSpec extends AnyFunSuite {

  test("sim is symmetric") {
    assert(Embeddings.sim("serves", "sells") == Embeddings.sim("sells", "serves"))
    assert(Embeddings.sim("city", "Tokyo") == Embeddings.sim("Tokyo", "city"))
  }

  test("sim of equal words is 1.0, case-insensitively") {
    assert(Embeddings.sim("coffee", "coffee") == 1.0)
    assert(Embeddings.sim("Coffee", "coffee") == 1.0)
  }

  test("sim of unrelated words is 0") {
    assert(Embeddings.sim("coffee", "garden") == 0.0)
  }

  test("Example 2.2 separation: cities score on 'city', countries on 'country'") {
    assert(Embeddings.sim("Tokyo", "city") > 0.3)
    assert(Embeddings.sim("Beijing", "city") > 0.3)
    assert(Embeddings.sim("China", "country") > 0.4)
    assert(Embeddings.sim("Japan", "country") > 0.4)
    // cross-concept scores are too low to pass the default threshold
    assert(Embeddings.sim("China", "city") < 0.2)
    assert(Embeddings.sim("Tokyo", "country") < 0.2)
  }

  test("neighbors includes the word itself with score 1") {
    val ns = Embeddings.neighbors("serves")
    assert(ns.head == ("serves", 1.0))
    assert(ns.exists(_._1 == "sells"))
  }

  test("expand('serves coffee') yields 'sells espresso' (paper §2.2)") {
    val e = Embeddings.expand(Seq("serves", "coffee"))
    assert(e.exists(_._1 == Seq("serves", "coffee")))
    assert(e.exists(_._1 == Seq("sells", "espresso")))
    assert(e.find(_._1 == Seq("serves", "coffee")).get._2 == 1.0)
  }

  test("expand scores are products of per-word similarities") {
    val e = Embeddings.expand(Seq("serves", "coffee")).toMap
    val expected = Embeddings.sim("serves", "sells") * Embeddings.sim("coffee", "espresso")
    assert(math.abs(e(Seq("sells", "espresso")) - expected) < 1e-9)
  }

  test("expand('employs baristas') yields 'hired barista' (multi-substitution)") {
    val e = Embeddings.expand(Seq("employs", "baristas"))
    assert(e.exists(_._1 == Seq("hired", "barista")))
  }

  test("expand is capped at topK and sorted by score descending") {
    // 5 × 6 × 3 = 90 variants before the cap
    val e = Embeddings.expand(Seq("serves", "coffee", "menu"))
    assert(e.size == Embeddings.TopK)
    assert(e.map(_._2) == e.map(_._2).sorted.reverse)
  }

  test("expansion of an unknown word is the identity") {
    assert(Embeddings.expand(Seq("garden")) == Seq(Seq("garden") -> 1.0))
  }
}
