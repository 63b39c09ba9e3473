package repro.core

import repro.nlp.{ClauseDecomposer, Embeddings, Sent, Vocab}

/** The per-value evidence scorer of §4.4.1, kept in test code as the
  * reference for [[Aggregator]]'s compiled plan: every call re-tokenizes,
  * re-expands and re-decomposes, and words compare with `equalsIgnoreCase`.
  * Its scores are the ones the plan must reproduce bit for bit.
  */
object ReferenceScorer {
  import Ast._

  private def occurrences(words: Seq[String], s: Sent): Seq[Int] =
    if (words.isEmpty) Seq.empty
    else (0 to s.t - words.size).filter(i =>
      words.indices.forall(k => s.toks(i + k).word.equalsIgnoreCase(words(k))))

  private def occursInOrder(needle: Seq[String], hay: Seq[String]): Boolean = {
    var h = 0
    needle.forall { w =>
      var found = false
      while (h < hay.size && !found) {
        if (hay(h).equalsIgnoreCase(w)) found = true
        h += 1
      }
      found
    }
  }

  private def sublist(needle: Seq[String], hay: Seq[String]): Boolean =
    needle.nonEmpty && (0 to hay.size - needle.size).exists(i =>
      needle.indices.forall(k => hay(i + k) == needle(k)))

  def condScore(c: SatCond, value: String, docSents: Seq[Sent]): Double = {
    val valueWords = KokoParser.textTokens(value)
    c match {
      case CContains(_, s, substring, _) =>
        val hit =
          if (substring) value.contains(s)
          else sublist(KokoParser.textTokens(s), valueWords)
        if (hit) 1.0 else 0.0

      case CMatches(_, re, _) => if (value.matches(re)) 1.0 else 0.0

      case CDict(_, d, _) =>
        if (Vocab.Dicts.get(d).exists(_.contains(value.toLowerCase))) 1.0 else 0.0

      case CSimilar(_, w, _) =>
        valueWords.map(v => Embeddings.sim(v, w)).maxOption.getOrElse(0.0)

      case CAdjacent(_, s, before, _) =>
        val pat = KokoParser.textTokens(s)
        val hit = docSents.exists { sent =>
          occurrences(valueWords, sent).exists { i =>
            if (before) {
              val st = i - pat.size
              st >= 0 && pat.indices.forall(k => sent.toks(st + k).word.equalsIgnoreCase(pat(k)))
            } else {
              val st = i + valueWords.size
              st + pat.size <= sent.t &&
                pat.indices.forall(k => sent.toks(st + k).word.equalsIgnoreCase(pat(k)))
            }
          }
        }
        if (hit) 1.0 else 0.0

      case CNear(_, s, _) =>
        val pat = KokoParser.textTokens(s)
        docSents.flatMap { sent =>
          val vs = occurrences(valueWords, sent)
          val ps = occurrences(pat, sent)
          for (v <- vs; p <- ps) yield {
            val d =
              if (p >= v + valueWords.size) p - (v + valueWords.size)
              else if (v >= p + pat.size) v - (p + pat.size)
              else 0
            1.0 / (1 + d)
          }
        }.maxOption.getOrElse(0.0)

      case CDescriptor(_, phrase, after, _) =>
        val expansions = Embeddings.expand(phrase)
        docSents.map { sent =>
          val occs = occurrences(valueWords, sent)
          if (occs.isEmpty) 0.0
          else {
            val clauses = ClauseDecomposer.clauses(sent)
            occs.map { occ =>
              val region: Int => Boolean =
                if (after) tid => tid >= occ + valueWords.size
                else tid => tid < occ
              expansions.map { case (dWords, k) =>
                clauses.map { cl =>
                  val words = cl.tids.filter(region).map(t => sent.toks(t).word)
                  if (occursInOrder(dWords, words)) k * cl.score else 0.0
                }.sum
              }.max
            }.max
          }
        }.sum
    }
  }

  def score(sat: Satisfying, value: String, docSents: Seq[Sent]): Double =
    sat.conds.map(c => c.weight * condScore(c, value, docSents)).sum
}
