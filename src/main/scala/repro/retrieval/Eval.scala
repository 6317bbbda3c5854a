package repro.retrieval

import repro.core.AnnIndex

/** One evaluated cell: a quality score and the average query time. */
final case class EvalRun(results: Array[Array[Long]], aqtMillis: Double)

/** The end-to-end measurement loop of §7.2: queries run sequentially (one
  * in-flight query, like the paper's AQT measurement — index-internal
  * parallelism still uses all cores), timed with wall clock.
  */
object Eval {

  def run(index: AnnIndex, queries: Array[Array[Float]], k: Int): EvalRun = {
    val results = new Array[Array[Long]](queries.length)
    val t0 = System.nanoTime()
    var i = 0
    while (i < queries.length) {
      results(i) = index.search(queries(i), k).map(_.id)
      i += 1
    }
    val elapsed = System.nanoTime() - t0
    EvalRun(results, elapsed / 1e6 / math.max(1, queries.length))
  }

  /** MRR@10 + AQT on a point task (MS MARCO Dev / Wiki-21M NQ). */
  def pointScore(index: AnnIndex, task: PointTask, k: Int): (Double, Double) = {
    val r = run(index, task.queries, k)
    (Metrics.mrrAt(r.results, task.relevant), r.aqtMillis)
  }

  /** NDCG@10 + AQT on a graded task (TREC2019 DL). */
  def gradedScore(index: AnnIndex, task: GradedTask, k: Int): (Double, Double) = {
    val r = run(index, task.queries, k)
    (Metrics.meanNdcgAt(r.results, task.qrels), r.aqtMillis)
  }
}
