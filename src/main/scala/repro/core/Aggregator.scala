package repro.core

import repro.nlp.{ClauseDecomposer, Embeddings, Sent, TreeOps, Vocab}

/** Evidence aggregation for satisfying / excluding clauses (§4.4.1).
  *
  * The score of a value `e` is `Σ wᵢ·mᵢ(e)` over the clause's conditions.
  * Boolean conditions contribute 0/1 (existence over the document);
  * `near` scores `1/(1+distance)` (max over the document); descriptor
  * conditions follow the paper's formula: per sentence,
  * `conf = maxᵢ Σⱼ match(dᵢ, cⱼ)` with `match(dᵢ, cⱼ) = kᵢ·lⱼ` when the
  * expanded descriptor's word sequence occurs in order (gaps allowed) in
  * canonical clause `cⱼ`; the document score is the sum over sentences.
  *
  * [[aggregate]] applies a query's satisfying and excluding clauses to one
  * document's extract tuples; the engine and [[NaiveKoko]] both call it.
  */
object Aggregator {
  import Ast._
  import Normalizer.NormQuery
  import SentenceEvaluator.Cand

  /** One output row of a KOKO query: an extract tuple plus the scores of
    * its satisfying clauses, keyed by variable.
    */
  final case class OutRow(
      doc: Long,
      sid: Long,
      vals: Map[String, String],
      scores: Map[String, Double])

  /** Occurrence start indices of a token sequence in a sentence
    * (case-insensitive, contiguous).
    */
  def occurrences(words: Seq[String], s: Sent): Seq[Int] =
    if (words.isEmpty) Seq.empty
    else (0 to s.t - words.size).filter(i =>
      words.indices.forall(k => s.toks(i + k).word.equalsIgnoreCase(words(k))))

  /** In-order, gapped containment of `needle` in `hay`. */
  def occursInOrder(needle: Seq[String], hay: Seq[String]): Boolean = {
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

  /** Confidence mᵢ(e) of one condition for value `e` over the document. */
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
            val meta = TreeOps.meta(sent.toks)
            val clauses = ClauseDecomposer.clauses(sent, meta)
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

  /** Weighted-sum score of a satisfying clause for one value. */
  def score(sat: Satisfying, value: String, docSents: Seq[Sent]): Double =
    sat.conds.map(c => c.weight * condScore(c, value, docSents)).sum

  /** The output rows of one document (§4.4.1): each tuple is scored by
    * every satisfying clause (once per distinct value in the document) and
    * kept iff each score reaches its threshold and no excluding condition
    * fires. `docSents` are all the document's sentences, sorted by `sid`.
    */
  def aggregate(nq: NormQuery, tuples: Seq[Cand], docSents: Seq[Sent]): Seq[OutRow] = {
    val cache = scala.collection.mutable.Map[(String, String), Double]()
    tuples.flatMap { c =>
      val scores = nq.satisfying.map { sat =>
        val v = c.vals(sat.v)
        sat.v -> cache.getOrElseUpdate((sat.v, v), score(sat, v, docSents))
      }.toMap
      val pass = nq.satisfying.forall(sat => scores(sat.v) >= sat.threshold)
      lazy val excluded = nq.excluding.exists(e =>
        c.vals.get(e.v).exists(v => condScore(e, v, docSents) > 0))
      if (pass && !excluded) Some(OutRow(c.doc, c.sid, c.vals, scores)) else None
    }
  }
}
