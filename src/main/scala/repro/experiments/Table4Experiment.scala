package repro.experiments

import repro.esklsh.ESKLSH
import repro.retrieval._
import repro.rmi.{KeyRescaler, SimplifiedRMI}

/** Table 4 (paper §7.4): effect of the key re-scaling module on RMI
  * prediction quality, on the MS-100k dataset with one prediction per Dev
  * query. Counted per the paper's definitions:
  *
  *  - OOR: the truncated prediction equals 0 or L_array − 1
  *  - LE : |prediction − true location| > k (the paper uses k = 100; we
  *         use our scaled k)
  *  - overlap: predictions that are both
  *
  * Each arm ([[Table4Experiment.arm]]) is one sorted array (H = 1: one
  * prediction per query, as the paper's 6980-queries / 6980-predictions
  * accounting implies) of capacity-sized hashkeys (§5.1: keys are kept long
  * to avoid duplicate hashkeys) and one RMI trained by the gradient trainer
  * the re-scaling module exists for ([[repro.rmi.LinearModel.fitSGD]]), on
  * re-scaled or raw keys. A core model always re-scales and fits by OLS,
  * under which re-scaling changes nothing (DESIGN.md §6), so the arms are
  * built here.
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
      val (oor, le, overlap) = counts(arm(corpus.vectors, rescaled, keyLen, rmiWidth = 10), dev.queries, k)
      log(s"[table4] rescaled=$rescaled oor=$oor le=$le overlap=$overlap")
      Table4Row(rescaled, oor, le, overlap)
    }
    Table4Result(rows, dev.queries.length)
  }

  /** One arm: a sorted array of `keyLen`-bit keys over `vectors`, hashed
    * under a core model's default planes (seed 7), and an RMI of
    * `rmiWidth` leaves trained by gradient descent on its keys, re-scaled
    * ([[KeyRescaler.of]]) or raw.
    */
  def arm(vectors: Array[Array[Float]], rescaled: Boolean, keyLen: Int, rmiWidth: Int): Arm =
    new Arm(ESKLSH.build(vectors, numArrays = 1, keyLen, seed = 7), rescaled, rmiWidth)

  final class Arm(val esklsh: ESKLSH, rescaled: Boolean, rmiWidth: Int) {
    private val rescaler = KeyRescaler.of(esklsh.arrays(0))

    private def rmiKey(key: Long): Double = if (rescaled) rescaler.rescale(key) else key.toDouble

    private val rmi = SimplifiedRMI.fit(esklsh.arrays(0).keys.map(rmiKey), rmiWidth, useSgd = true)

    /** The arm's truncated RMI prediction for a query key. */
    def predictStart(queryKey: Long): Int = rmi.predict(rmiKey(queryKey)).toInt
  }

  /** (N_OOR, N_LE, N_overlap) of `arm` over `queries`: one truncated RMI
    * prediction per query, against the query key's true insertion point,
    * with LE's threshold `k`.
    */
  def counts(arm: Arm, queries: Array[Array[Float]], k: Int): (Int, Int, Int) = {
    val arr = arm.esklsh.arrays(0)
    var oor = 0; var le = 0; var overlap = 0
    queries.foreach { q =>
      val qKey = arm.esklsh.hashQuery(q)(0)
      val pred = arm.predictStart(qKey)
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
