package repro.experiments

import repro.core.{CoreModel, CoreModelParams}
import repro.retrieval._

/** `avgExpansionMillis` is the *median* per-query expansion wall time —
  * the per-query cost is about 0.1–0.2 ms, so mean times are hostage to a
  * single stray GC pause or scheduler hiccup.
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
  * reports MRR@10 from the top-10 prefix. It times `ESKLSH.expandAll`
  * between the public calls that `CoreModel.search` makes (R < n).
  */
object Table3Experiment {

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
      val perQueryNanos = new Array[Long](dev.queries.length)
      def search(i: Int): Array[Long] = {
        val q = dev.queries(i)
        val keys = cm.esklsh.hashQuery(q)
        val starts = Array.tabulate(h)(a => cm.predictStart(a, keys(a)))
        val t0 = System.nanoTime()
        val cands = cm.esklsh.expandAll(keys, starts, cm.r0 * km)
        perQueryNanos(i) = System.nanoTime() - t0
        cm.verify(q, cands, km).map(_.id)
      }
      // Let build garbage collect, then warm up JIT + thread pool before
      // the timed passes — the per-query measurement is sub-millisecond, so
      // a stray major GC or a descheduled pool would otherwise dominate one
      // sweep point. Three timed passes; per-pass median; min of medians
      // (results are identical across passes — search is deterministic).
      System.gc()
      dev.queries.indices.take(50).foreach(search)
      var results: Array[Array[Long]] = null
      var bestMedianNanos = Long.MaxValue
      for (_ <- 0 until 3) {
        results = Array.tabulate(dev.queries.length)(search)
        bestMedianNanos = math.min(bestMedianNanos, perQueryNanos.sorted.apply(perQueryNanos.length / 2))
      }
      val mrr = Metrics.mrrAt(results, dev.relevant, cut)
      val row = Table3Row(h, mrr, bestMedianNanos / 1e6)
      log(f"[table3] H=$h mrr=${row.mrr}%.4f expansion=${row.avgExpansionMillis}%.4fms")
      row
    }
    Table3Result(rows)
  }
}
