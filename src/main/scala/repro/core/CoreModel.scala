package repro.core

import repro.esklsh.ESKLSH
import repro.linalg.{Parallel, VecOps}
import repro.rmi.{KeyRescaler, SimplifiedRMI}

/** One scored search hit: a global passage id and its similarity score. */
final case class Scored(id: Long, score: Double)

/** Parameters of a single core model (paper Fig. 1).
  *
  * @param numArrays   H — number of ESK-LSH sorted arrays (and RMIs)
  * @param keyLen      M — hashkey length; `None` → ceil(log2 n) (paper §6)
  * @param b           B — KD_e window width (paper Eq. 6), C = 2^B
  * @param rmiWidth    W — second-layer models per RMI (paper W_c / W_i)
  * @param r0          expansion factor: per-array range R = r0 · k_m
  * @param rescaleKeys min-max re-scaling on (paper §5.1); the Table 4
  *                    ablation sets this to false to train on raw keys
  * @param sgdRmi      train RMI models by fixed-rate gradient descent
  *                    instead of closed-form OLS — required to *observe*
  *                    the re-scaling effect (Table 4), since OLS is
  *                    affine-equivariant; see [[repro.rmi.LinearModel.fitSGD]]
  */
final case class CoreModelParams(
    numArrays: Int = 10,
    keyLen: Option[Int] = None,
    b: Int = 3,
    rmiWidth: Int = 5,
    r0: Int = 3,
    rescaleKeys: Boolean = true,
    sgdRmi: Boolean = false,
    seed: Long = 7L)

/** The basic index-and-search unit of LIDER (paper §3.1): ESK-LSH for
  * dimension reduction, key re-scaling, and one simplified RMI per sorted
  * array. Scores are inner products — all corpus/query embeddings in this
  * repo are L2-normalized, making that identical to cosine similarity
  * (the paper normalizes for the same reason, §7.1.1).
  */
final class CoreModel(
    val vectors: Array[Array[Float]],
    val globalIds: Array[Long],
    val esklsh: ESKLSH,
    val rescalers: Array[KeyRescaler],
    val rmis: Array[SimplifiedRMI],
    val r0: Int,
    val rescaleKeys: Boolean)
    extends Serializable {

  def size: Int = vectors.length

  /** The numeric RMI key of a raw hashkey on array `h` (§5.1). */
  def rmiKey(h: Int, hashkey: Long): Double =
    if (rescaleKeys) rescalers(h).rescale(hashkey) else hashkey.toDouble

  /** Predicted start position on array `h` for a query hashkey. */
  def predictStart(h: Int, queryKey: Long): Int =
    rmis(h).predict(rmiKey(h, queryKey)).toInt

  /** Full single-core-model search (§3.3.1, five steps): hash the query,
    * re-scale, RMI-predict, expand R = r0·k_m per array in parallel, then
    * verify candidates by exact score and keep the top k_m (sorted
    * descending — the in-cluster retrievers sort so LIDER's merge stage
    * can run a heap merge, §6.2).
    */
  def search(q: Array[Float], km: Int): Array[Scored] = searchDetailed(q, km)._1

  /** Search plus the ESK-LSH expansion wall time in nanos (Table 3). */
  def searchDetailed(q: Array[Float], km: Int): (Array[Scored], Long) = {
    VecOps.requireDim(q, esklsh.lsh.dim)
    if (size == 0) return (Array.empty[Scored], 0L)
    val queryKeys = esklsh.hashQuery(q)
    val starts = Array.tabulate(esklsh.numArrays)(h => predictStart(h, queryKeys(h)))
    val range = math.max(1, r0 * km)
    val t0 = System.nanoTime()
    val cands = esklsh.expandAll(queryKeys, starts, range)
    val expandNanos = System.nanoTime() - t0
    (verify(q, cands, km), expandNanos)
  }

  /** Candidate verification: exact scores, top-k_m descending. */
  def verify(q: Array[Float], candidateIdx: Array[Int], km: Int): Array[Scored] =
    TopK.verify(q, vectors, globalIds, candidateIdx, km)
}

object CoreModel {

  /** Indexing workflow of a core model (§3.3.1): hash the corpus, sort the
    * hashkey arrays, re-scale keys, and train one RMI per array on
    * (re-scaled key → position) pairs. RMIs train in parallel across
    * arrays (offline build).
    */
  def build(
      vectors: Array[Array[Float]],
      globalIds: Array[Long],
      params: CoreModelParams,
      sharedLsh: Option[repro.lsh.RandomHyperplaneLSH] = None): CoreModel = {
    require(vectors.length == globalIds.length, "vectors/ids mismatch")
    require(vectors.nonEmpty, "core model needs vectors")
    val m = params.keyLen.getOrElse(ESKLSH.keyLenFor(vectors.length))
    val esklsh = ESKLSH.build(vectors, params.numArrays, m, params.b, params.seed, sharedLsh)
    val n = vectors.length
    val rescalers = new Array[KeyRescaler](params.numArrays)
    val rmis = new Array[SimplifiedRMI](params.numArrays)
    Parallel.foreachRange(params.numArrays) { h =>
      val keys = esklsh.arrays(h).keys
      val rescaler = KeyRescaler.fit(keys, n.toLong)
      rescalers(h) = rescaler
      val trainKeys = new Array[Double](n)
      var i = 0
      while (i < n) {
        trainKeys(i) = if (params.rescaleKeys) rescaler.rescale(keys(i)) else keys(i).toDouble
        i += 1
      }
      rmis(h) = SimplifiedRMI.fit(trainKeys, params.rmiWidth, useSgd = params.sgdRmi)
    }
    new CoreModel(vectors, globalIds, esklsh, rescalers, rmis, params.r0, params.rescaleKeys)
  }
}
