package repro

import repro.nlp.{Sent, Templates}
import scala.util.Random

/** Hand-pinned sentences matching the paper's running examples.
  *
  * `fig1` is the Figure 1 sentence ("I ate a chocolate ice cream , which
  * was delicious , and also ate a pie .") with sid 0 and `anna` the
  * Example 3.1 sentence ("Anna ate some delicious cheesecake that she
  * bought at a grocery store .") with sid 1, both of document 0 (sid =
  * doc * 64 + k), so the index tests can
  * assert the paper's Example 3.2 / 3.3 quintuples verbatim.
  */
object Fixtures {
  val fig1: Sent = Sent(0, 0, Templates.mk(Templates.fig1Like(new Random(1), fixed = true)))
  val anna: Sent = Sent(0, 1, Templates.mk(Templates.annaLike(new Random(1), fixed = true)))
  val both: Seq[Sent] = Seq(fig1, anna)
}
