package repro.experiments

import repro.core.{CoreModel, CoreModelParams}
import repro.retrieval._

/** Table 4 (paper §7.4): effect of the key re-scaling module on RMI
  * prediction quality, on the MS-100k dataset with one prediction per Dev
  * query. Counted per the paper's definitions:
  *
  *  - OOR: the truncated prediction equals 0 or L_array − 1
  *  - LE : |prediction − true location| > k (the paper uses k = 100; we
  *         use our scaled k)
  *  - overlap: predictions that are both
  *
  * The standalone core model uses H = 1 (one prediction per query, as the
  * paper's 6980-queries / 6980-predictions accounting implies),
  * capacity-sized hashkeys (§5.1: keys are kept long to avoid duplicate
  * hashkeys) and the gradient RMI trainer the re-scaling module exists
  * for (see CoreModelParams.sgdRmi).
  */
final case class Table4Row(rescaled: Boolean, nOor: Int, nLe: Int, nOverlap: Int)

final case class Table4Result(rows: Seq[Table4Row], queries: Int) {
  def row(rescaled: Boolean): Table4Row = rows.find(_.rescaled == rescaled).get
  def render: String = {
    val sb = new StringBuilder
    sb.append(s"== Table 4: key re-scaling ablation (MS-100k, $queries queries) ==\n")
    sb.append("Using key re-scaling\tN_OOR\tN_LE\tN_overlap\n")
    rows.foreach { r =>
      sb.append(s"${if (r.rescaled) "Yes" else "No"}\t${r.nOor}\t${r.nLe}\t${r.nOverlap}\n")
    }
    sb.toString
  }
}

object Table4Experiment {

  def run(
      datasetLabel: String = "MS-100k",
      dim: Int = Scaled.Dim,
      k: Int = Scaled.K,
      keyLen: Int = 24,
      log: String => Unit = s => Console.err.println(s)): Table4Result = {
    val spec = Scaled.dataset(datasetLabel)
    val corpus = RetrievalData.corpus(spec.n, dim, spec.seed)
    val dev = RetrievalData.pointTask(corpus, spec.numQueries, spec.seed + 1)

    val rows = Seq(false, true).map { rescaled =>
      val cm = CoreModel.build(corpus.vectors, corpus.ids,
        CoreModelParams(numArrays = 1, keyLen = Some(keyLen), rmiWidth = 10,
          rescaleKeys = rescaled, sgdRmi = true))
      val (oor, le, overlap) = counts(cm, dev.queries, k)
      log(s"[table4] rescaled=$rescaled oor=$oor le=$le overlap=$overlap")
      Table4Row(rescaled, oor, le, overlap)
    }
    Table4Result(rows, dev.queries.length)
  }

  /** (N_OOR, N_LE, N_overlap) of `cm`'s first array over `queries`: one
    * truncated RMI prediction per query, against the query key's true
    * insertion point, with LE's threshold `k`.
    */
  def counts(cm: CoreModel, queries: Array[Array[Float]], k: Int): (Int, Int, Int) = {
    val arr = cm.esklsh.arrays(0)
    var oor = 0; var le = 0; var overlap = 0
    queries.foreach { q =>
      val qKey = cm.esklsh.hashQuery(q)(0)
      val pred = cm.predictStart(0, qKey)
      val truth = arr.insertionPoint(qKey)
      val isOor = pred == 0 || pred == arr.length - 1
      val isLe = math.abs(pred - truth) > k
      if (isOor) oor += 1
      if (isLe) le += 1
      if (isOor && isLe) overlap += 1
    }
    (oor, le, overlap)
  }
}
