package repro.core

import repro.kmeans.{KMeans, KMeansModel}
import repro.linalg.Parallel

/** Parameters of the full two-layer LIDER (paper §3.2 / §7.2.1 defaults,
  * scaled — see DESIGN.md §5).
  *
  * @param c            number of k-means clusters
  * @param c0           centroids retrieved per query (target clusters)
  * @param centroidCore core-model params of the centroids retriever
  *                     (paper: H = 10, W_c = 10)
  * @param clusterCore  core-model params of each in-cluster retriever
  *                     (paper: H = 10, W_i = 5)
  * @param kmeansSample max corpus sample used to *train* the k-means
  *                     centroids (full corpus is always assigned)
  */
final case class LiderParams(
    c: Int = 1000,
    c0: Int = 20,
    centroidCore: CoreModelParams = CoreModelParams(rmiWidth = 10),
    clusterCore: CoreModelParams = CoreModelParams(rmiWidth = 5),
    kmeansSample: Int = 100_000,
    kmeansIters: Int = 12,
    seed: Long = 11L)

/** Wall-clock nanos of the three construction stages reported in Table 5. */
final case class BuildStats(clusteringNanos: Long, centroidRetrieverNanos: Long, inClusterNanos: Long)

/** LIDER (paper §3.2): layer 1 is a core model over the k-means centroids
  * ("centroids retriever"); layer 2 is one core model per cluster
  * ("in-cluster retrievers"). Search fans out to the c0 target clusters in
  * parallel and merges per-cluster sorted results with a heap (§6.2).
  */
final class Lider(
    val centroidsRetriever: CoreModel,
    val inClusterRetrievers: Array[CoreModel], // null for empty clusters
    val kmeans: KMeansModel,
    val params: LiderParams)
    extends Serializable {

  def numClusters: Int = inClusterRetrievers.length

  /** The c0 target cluster ids for a query (layer-1 retrieval). */
  def targetClusters(q: Array[Float], c0: Int): Array[Int] =
    centroidsRetriever
      .search(q, c0)
      .map(_.id.toInt)
      .filter(cid => inClusterRetrievers(cid) != null)

  /** Full ANN query (§3.3.2): centroids retrieval → in-cluster retrieval
    * (k_m = k per cluster) → heap-merge to the global top-k.
    *
    * In-cluster retrievers are independent and run concurrently (the
    * paper's between-cluster parallelism) — but only when the total
    * expansion work amortizes thread dispatch; at our ×1/100 scale a
    * cluster search costs ~20 µs, far below the ~0.3 ms dispatch cost, so
    * small-budget queries sweep the target clusters serially (same knob
    * as [[repro.esklsh.ESKLSH.MinParallelWork]]).
    *
    * k ≤ 0 or a query whose length is not the index dimension (checked by
    * the centroids retriever) fails with an `IllegalArgumentException`.
    */
  def search(q: Array[Float], k: Int, c0Override: Int = -1): Array[Scored] = {
    require(k > 0, s"k must be positive, got $k")
    val c0 = if (c0Override > 0) c0Override else params.c0
    val targets = targetClusters(q, c0)
    val cc = params.clusterCore
    val totalWork = targets.length.toLong * cc.numArrays * cc.r0 * k
    val perCluster =
      if (totalWork >= Lider.MinParallelWork)
        Parallel.tabulate(targets.length)(i => inClusterRetrievers(targets(i)).search(q, k))
      else
        Array.tabulate(targets.length)(i => inClusterRetrievers(targets(i)).search(q, k))
    TopK.mergeSorted(perCluster, k)
  }
}

object Lider {

  /** Minimum total expansion steps across target clusters before the
    * cluster fan-out pays for thread dispatch (see [[Lider.search]]).
    */
  val MinParallelWork = 16384L

  /** Builds LIDER over normalized corpus embeddings.
    *
    * Stage 1: k-means (trained on a bounded sample, full parallel
    * assignment — mirrors the paper's note that FAISS-style accelerated
    * clustering is acceptable for this stage). Stage 2: centroids
    * retriever. Stage 3: all in-cluster retrievers, built in parallel
    * (independent clusters). Returns stage wall times for Table 5.
    */
  def build(
      vectors: Array[Array[Float]],
      globalIds: Array[Long],
      params: LiderParams): (Lider, BuildStats) = {
    require(vectors.length == globalIds.length)

    val t0 = System.nanoTime()
    val sample = KMeans.sample(vectors, params.kmeansSample, params.seed)
    val km = KMeans.fit(sample, params.c, params.kmeansIters, params.seed)
    val assign = KMeans.assign(km, vectors)
    val t1 = System.nanoTime()

    val centroidIds = Array.tabulate(km.k)(_.toLong)
    val centroidsRetriever = CoreModel.build(km.centroids, centroidIds, params.centroidCore)
    val t2 = System.nanoTime()

    val members = Array.fill(km.k)(new scala.collection.mutable.ArrayBuffer[Int])
    var i = 0
    while (i < assign.length) { members(assign(i)) += i; i += 1 }
    // One hyperplane set shared by every in-cluster retriever (truncated to
    // each cluster's key length) — hyperplanes are data-independent, so
    // sharing changes nothing statistically but keeps the Table 5 memory
    // accounting honest across ~1000 clusters.
    val maxClusterN = members.iterator.map(_.size).max
    val sharedLsh = repro.lsh.RandomHyperplaneLSH(
      vectors(0).length,
      params.clusterCore.numArrays,
      params.clusterCore.keyLen.getOrElse(repro.esklsh.ESKLSH.keyLenFor(math.max(2, maxClusterN))),
      params.clusterCore.seed)
    val inCluster = Parallel.tabulate(km.k) { cid =>
      val idx = members(cid)
      if (idx.isEmpty) null
      else {
        val vs = idx.map(vectors).toArray
        val ids = idx.map(globalIds).toArray
        CoreModel.build(vs, ids, params.clusterCore, Some(sharedLsh))
      }
    }
    val t3 = System.nanoTime()

    (new Lider(centroidsRetriever, inCluster, km, params),
     BuildStats(t1 - t0, t2 - t1, t3 - t2))
  }

  /** The paper's cluster-count guidance (§7.5): pick c so clusters hold
    * roughly `targetClusterSize` vectors, floored to keep layer 1
    * meaningful on tiny corpora.
    */
  def recommendedC(n: Int, targetClusterSize: Int = 200): Int =
    math.max(10, n / math.max(1, targetClusterSize))

  /** The paper's c0 guidance (§7.5): c/100 ~ c/50, floored at 3. */
  def recommendedC0(c: Int): Int = math.max(3, c / 50)
}
