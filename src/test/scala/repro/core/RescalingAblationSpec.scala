package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Table4Experiment
import repro.retrieval.RetrievalData

/** Unit-level version of the Table 4 experiment (paper §7.4): without key
  * re-scaling the RMI trains on huge decimal keys against small position
  * labels, so predictions truncate to the array ends (out-of-range, OOR);
  * with re-scaling OOR collapses to ~0 and large errors drop.
  */
class RescalingAblationSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(2000, 32, seed = 55)
  private lazy val task = RetrievalData.pointTask(corpus, 200, seed = 7)

  private def stats(rescale: Boolean): (Int, Int, Int) = {
    // Long hashkeys (capacity-sized, paper §5.1) + the gradient trainer the
    // re-scaling module exists for; see Table4Experiment.arm.
    val arm = Table4Experiment.arm(corpus.vectors, rescale, keyLen = 24, rmiWidth = 5)
    Table4Experiment.counts(arm, task.queries, k = 10) // scaled k (paper: 100)
  }

  test("without re-scaling, out-of-range predictions dominate and overlap large errors") {
    val (oor, le, overlap) = stats(rescale = false)
    assert(oor > task.queries.length / 2, s"oor=$oor")
    assert(overlap > (oor * 7) / 10, s"overlap=$overlap vs oor=$oor")
    assert(le >= overlap)
  }

  test("with re-scaling, out-of-range predictions all but vanish") {
    val (oorNo, leNo, _) = stats(rescale = false)
    val (oorYes, leYes, overlapYes) = stats(rescale = true)
    assert(oorYes < oorNo / 10, s"oorYes=$oorYes oorNo=$oorNo")
    assert(leYes <= leNo, s"leYes=$leYes leNo=$leNo")
    assert(overlapYes <= oorYes)
  }
}
