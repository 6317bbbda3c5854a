package repro.experiments

import repro.core.{CoreModel, CoreModelParams}
import repro.retrieval._

/** `avgExpansionMillis` is the mean per-query expansion wall time of the
  * fastest of several whole passes over the queries, as the paper's "Avg
  * expansion time" column is a mean; the fastest pass is the one no GC
  * pause or descheduled thread reached.
  */
final case class Table3Row(h: Int, mrr: Double, avgExpansionMillis: Double)

final case class Table3Result(rows: Seq[Table3Row]) {
  def render: String = {
    val sb = new StringBuilder
    sb.append("== Table 3: impact of H on a standalone core model " +
      "(paper: MS-1M; ours: the 210k corpus at k_m = 100 — DESIGN.md §6) ==\n")
    sb.append("H\tMRR@10\tAvg expansion time\n")
    rows.foreach(r => sb.append(f"${r.h}\t${r.mrr}%.4f\t${r.avgExpansionMillis}%.4fms\n"))
    sb.toString
  }
}

/** Table 3 (paper §7.3): impact of the ESK-LSH array count H on a
  * *standalone* core model (no clustering layer): MRR@10 and the average
  * ESK-LSH expansion time per query. The paper sweeps H = 32, 48, 64 on
  * MS-1M with k = 100 — more arrays raise quality with only a tiny
  * expansion-time overhead (the §4.3 parallelism claim).
  *
  * Dataset substitution (see DESIGN.md): the paper's MS-1M core model
  * expands R ≈ r0·100 positions over million-entry string-hashkey arrays,
  * so one array's expansion costs ~ms and parallelism across arrays pays.
  * Our packed-Long arrays make one array's walk a few µs at any of our
  * sizes, so the sweep runs on our largest corpus (Wiki-21M-sized, 210k),
  * the closest regime to the paper's, with the paper's k_m = 100, and
  * reports MRR@10 from the top-10 prefix. It hashes every query and
  * predicts its starts first, then times whole passes of
  * `ESKLSH.expandAll` over every query, the step between the public calls
  * that `CoreModel.search` makes (R < n).
  */
object Table3Experiment {

  /** Timed expansion passes per H; the fastest one is reported. */
  private val TimedPasses = 5

  def run(
      hValues: Seq[Int] = Seq(32, 48, 64),
      datasetLabel: String = "Wiki-21M",
      dim: Int = Scaled.Dim,
      km: Int = 100, // the paper's k — sets the per-array expansion budget
      cut: Int = Scaled.K,
      log: String => Unit = s => Console.err.println(s)): Table3Result = {
    val spec = Scaled.dataset(datasetLabel)
    val corpus = RetrievalData.corpus(spec.n, dim, spec.seed)
    val dev = RetrievalData.pointTask(corpus, spec.numQueries, spec.seed + 1)

    val rows = hValues.map { h =>
      val cm = CoreModel.build(corpus.vectors, corpus.ids,
        CoreModelParams(numArrays = h, rmiWidth = 10, r0 = 3))
      val range = cm.r0 * km
      val keys = dev.queries.map(cm.esklsh.hashQuery)
      val starts = keys.map(ks => Array.tabulate(h)(a => cm.predictStart(a, ks(a))))
      def expand(i: Int): Array[Int] = cm.esklsh.expandAll(keys(i), starts(i), range)
      // Let build garbage collect; the untimed pass that scores the
      // queries warms up the JIT and the thread pool. Then time whole
      // passes that only expand: one call is ~0.1 ms, so timing each call
      // would mostly measure fork dispatch and the clock.
      System.gc()
      val results = dev.queries.indices.map(i => cm.verify(dev.queries(i), expand(i), km).map(_.id)).toArray
      var bestPassNanos = Long.MaxValue
      for (_ <- 0 until TimedPasses) {
        val t0 = System.nanoTime()
        keys.indices.foreach(expand)
        bestPassNanos = math.min(bestPassNanos, System.nanoTime() - t0)
      }
      val mrr = Metrics.mrrAt(results, dev.relevant, cut)
      val row = Table3Row(h, mrr, bestPassNanos / 1e6 / keys.length)
      log(f"[table3] H=$h mrr=${row.mrr}%.4f expansion=${row.avgExpansionMillis}%.4fms")
      row
    }
    Table3Result(rows)
  }
}
