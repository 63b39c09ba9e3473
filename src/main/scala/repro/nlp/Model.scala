package repro.nlp

/** One token of a dependency-parsed sentence.
  *
  * This is the contract the paper's preprocessor (spaCy / Google NL API)
  * fulfils; here it is produced by [[CorpusGen]]. `head` is the parent's
  * `tid` in the dependency tree, `-1` for the root. `etype` is the entity
  * type ("" if the token is not part of an entity mention) and `eid` groups
  * consecutive tokens of one mention (-1 if none).
  */
final case class Tok(
    tid: Int,
    word: String,
    pos: String,
    label: String,
    head: Int,
    etype: String,
    eid: Int)

/** A parsed sentence. `sid` is globally unique across the corpus
  * (`sid = doc * CorpusGen.MaxSentsPerDoc + local index`).
  */
final case class Sent(doc: Long, sid: Long, toks: Seq[Tok]) {
  /** Surface text, tokens joined by single spaces. */
  def text: String = toks.map(_.word).mkString(" ")

  /** Number of tokens. */
  def t: Int = toks.size
}

/** An entity-index entry — the triple `(x, u-v)` of Section 3, plus the
  * entity type and surface text which the paper tracks in refined indices.
  */
final case class EntityMention(
    doc: Long,
    sid: Long,
    lo: Int,
    hi: Int,
    etype: String,
    text: String)

/** Locale-free case folding of words, shared by the index and the
  * evaluator. Each code point `c` maps to `toLowerCase(toUpperCase(c))`,
  * the per-character rule of `String.equalsIgnoreCase`, so two words fold
  * to the same string iff they are equal ignoring case, under any default
  * locale (`"I".toLowerCase` is `"ı"` under a Turkish one). On ASCII the
  * rule maps `A`–`Z` to `a`–`z` and nothing else, which is what
  * `toLowerCase(Locale.ROOT)` does there.
  */
object CaseFold {
  def apply(w: String): String = {
    var i = 0
    while (i < w.length && w.charAt(i) < 128) i += 1
    if (i == w.length) w.toLowerCase(java.util.Locale.ROOT)
    else {
      val sb = new java.lang.StringBuilder(w.length)
      w.codePoints().forEach(c => sb.appendCodePoint(Character.toLowerCase(Character.toUpperCase(c))))
      sb.toString
    }
  }
}
