package repro.perfbench

import repro.core.LiderParams
import repro.retrieval.Scaled

/** One benchmark workload: a seeded corpus, a LIDER index over it, and a
  * closed loop with a single client.
  *
  * @param n          corpus size (Scaled.Dim-dimensional, unit vectors)
  * @param k          top-k per query
  * @param poolSize   distinct queries generated from the seed; the timed
  *                   loop cycles through them in a seeded order, and
  *                   `mrr_at_10` is taken over all of them
  * @param recallSize leading pool queries checked against the Flat oracle
  * @param traceSize  leading order queries replayed by the traced pass
  * @param dsv2Batch  queries per batch of the traced DataSource V2 pass
  *                   (0: the workload's trace does not run Spark)
  */
final case class Workload(
    name: String,
    n: Int,
    k: Int,
    poolSize: Int,
    recallSize: Int,
    traceSize: Int,
    dsv2Batch: Int) {

  def params: LiderParams = Scaled.liderParams(n)
}

object Workloads {

  // The MS-8.8M and Wiki-21M corpora of Table 2 at the repository's
  // ×1/100 scale (88k and 210k passages, 64-d).
  private val MsN = 88_000
  private val WikiN = 210_000

  val all: Seq[Workload] = Seq(
    // k = 10 against clusters of ~200: 8 × 10 × 30 = 2 400 expansion steps
    // stay below both MinParallelWork thresholds, so a query runs on one
    // thread and verification, expansion and RMI prediction dominate. Its
    // trace also times the persisted index through format("lider").
    Workload("ms-k10-1c", MsN, k = 10, poolSize = 4000, recallSize = 200, traceSize = 1000,
      dsv2Batch = 64),
    // The paper's k = 100: R = 300 covers whole clusters (expansion and
    // RMI bypassed) and 21 × 3 000 steps ≥ Lider.MinParallelWork, so one
    // query fans out over the common pool.
    Workload("wiki-k100-1c", WikiN, k = 100, poolSize = 3000, recallSize = 100, traceSize = 300,
      dsv2Batch = 0),
  )

  /** A few-thousand-passage version of a workload for the harness
    * self-check: same code paths, seconds instead of minutes.
    */
  def tiny(w: Workload): Workload =
    w.copy(n = 6_000, poolSize = 200, recallSize = 40, traceSize = 50,
      dsv2Batch = math.min(w.dsv2Batch, 16))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (known: ${all.map(_.name).mkString(", ")})"))
}
