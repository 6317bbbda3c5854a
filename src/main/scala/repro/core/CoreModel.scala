package repro.core

import repro.esklsh.ESKLSH
import repro.linalg.{Parallel, VecOps}
import repro.rmi.{KeyRescaler, SimplifiedRMI}

/** One scored search hit: a global passage id and its similarity score. */
final case class Scored(id: Long, score: Double)

/** Parameters of a single core model (paper Fig. 1). Every core model
  * re-scales its keys (§5.1), fits its RMIs by closed-form OLS, takes
  * M = ceil(log2 n) (§6, [[ESKLSH.keyLenFor]]) and walks by dist_e with
  * the window width [[ESKLSH.B]] = 3; the Table 4 ablation, which trains
  * on raw keys by gradient descent, builds its own arms
  * ([[repro.experiments.Table4Experiment.arm]]).
  *
  * @param numArrays   H — number of ESK-LSH sorted arrays (and RMIs)
  * @param rmiWidth    W — second-layer models per RMI (paper W_c / W_i)
  * @param r0          expansion factor: per-array range R = r0 · k_m
  * @param seed        seed of the hyperplanes drawn at build
  */
final case class CoreModelParams(
    numArrays: Int = 10,
    rmiWidth: Int = 5,
    r0: Int = 3,
    seed: Long = 7L) {
  require(numArrays > 0, s"numArrays = $numArrays: a core model needs at least one sorted array (H ≥ 1)")
  require(rmiWidth > 0, s"rmiWidth = $rmiWidth: an RMI needs at least one second-layer model (W ≥ 1)")
  require(r0 > 0, s"r0 = $r0: the expansion factor must be positive (per-array range R = r0 · k_m)")
}

/** The basic index-and-search unit of LIDER (paper §3.1): ESK-LSH for
  * dimension reduction, key re-scaling, and one simplified RMI per sorted
  * array. Scores are inner products — all corpus/query embeddings in this
  * repo are L2-normalized, making that identical to cosine similarity
  * (the paper normalizes for the same reason, §7.1.1).
  *
  * Each array's re-scaler is derived from the array ([[KeyRescaler.of]]),
  * so a model built and one loaded from disk hold the same re-scalers.
  */
final class CoreModel(
    val vectors: Array[Array[Float]],
    val globalIds: Array[Long],
    val esklsh: ESKLSH,
    val rmis: Array[SimplifiedRMI],
    val r0: Int)
    extends Serializable {

  val rescalers: Array[KeyRescaler] = esklsh.arrays.map(KeyRescaler.of)

  def size: Int = vectors.length

  /** The numeric RMI key of a raw hashkey on array `h` (§5.1). */
  def rmiKey(h: Int, hashkey: Long): Double = rescalers(h).rescale(hashkey)

  /** Predicted start position on array `h` for a query hashkey. */
  def predictStart(h: Int, queryKey: Long): Int =
    rmis(h).predict(rmiKey(h, queryKey)).toInt

  /** Full single-core-model search (§3.3.1, five steps): hash the query,
    * re-scale, RMI-predict, expand R = r0·k_m per array (the arrays walk
    * concurrently only from [[ESKLSH.MinParallelWork]] total steps, which
    * no in-cluster retriever reaches), then verify candidates by exact
    * score and keep the top k_m, sorted descending.
    */
  def search(q: Array[Float], km: Int): Array[Scored] = {
    VecOps.requireQuery(q, esklsh.lsh.dim)
    verify(q, candidates(q, km, null, 0), km)
  }

  /** The local rows a top-k_m query verifies: the ESK-LSH candidates of
    * steps 1–4, or null for every row. When R ≥ the model's size every
    * array's walk takes every member, so hashing, prediction and expansion
    * are skipped: the candidate set is the same, and the collector's strict
    * total order makes the top k independent of the order candidates
    * arrive in. R = r0·k_m is a `Long`, so a large r0 or k_m never wraps
    * it below the size.
    *
    * The query must already be checked. Unless `longKeys` is null it is
    * also already hashed under a plane set of key length `longLen` that
    * this model's planes are a prefix of: each of this model's keys is
    * then the leading `keyLen` bits of that key.
    */
  private[core] def candidates(q: Array[Float], km: Int, longKeys: Array[Long], longLen: Int): Array[Int] = {
    val range = math.max(1L, r0.toLong * km)
    if (range >= size) return null
    val queryKeys =
      if (longKeys == null) esklsh.hashQuery(q)
      else Array.tabulate(longKeys.length)(h => longKeys(h) >>> (longLen - esklsh.keyLen))
    val starts = Array.tabulate(esklsh.numArrays)(h => predictStart(h, queryKeys(h)))
    esklsh.expandAll(queryKeys, starts, range.toInt)
  }

  /** Candidate verification: exact scores, top-k_m descending; a null
    * `candidateIdx` verifies every row.
    */
  def verify(q: Array[Float], candidateIdx: Array[Int], km: Int): Array[Scored] =
    TopK.verify(q, vectors, globalIds, candidateIdx, km)
}

object CoreModel {

  /** Indexing workflow of a core model (§3.3.1): hash the corpus, sort the
    * hashkey arrays, re-scale keys, and fit one OLS RMI per array on
    * (re-scaled key → position) pairs. RMIs train in parallel across
    * arrays (offline build). Vectors of differing lengths or with a
    * non-finite component are rejected first ([[VecOps.requireCorpus]]).
    */
  def build(
      vectors: Array[Array[Float]],
      globalIds: Array[Long],
      params: CoreModelParams,
      sharedLsh: Option[repro.lsh.RandomHyperplaneLSH] = None): CoreModel = {
    require(vectors.length == globalIds.length, "vectors/ids mismatch")
    require(vectors.nonEmpty, "core model needs vectors")
    VecOps.requireCorpus(vectors)
    val n = vectors.length
    val esklsh = ESKLSH.build(vectors, params.numArrays, ESKLSH.keyLenFor(n), params.seed, sharedLsh)
    val rmis = new Array[SimplifiedRMI](params.numArrays)
    Parallel.foreachRange(params.numArrays) { h =>
      val arr = esklsh.arrays(h)
      val rescaler = KeyRescaler.of(arr)
      rmis(h) = SimplifiedRMI.fit(arr.keys.map(rescaler.rescale), params.rmiWidth)
    }
    new CoreModel(vectors, globalIds, esklsh, rmis, params.r0)
  }
}
