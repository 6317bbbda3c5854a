package repro.core

import repro.esklsh.ESKLSH
import repro.kmeans.KMeans
import repro.linalg.{IdOps, Parallel, VecOps}
import repro.lsh.RandomHyperplaneLSH

/** Parameters of the full two-layer LIDER (paper §3.2 / §7.2.1 defaults,
  * scaled — see DESIGN.md §5).
  *
  * @param c            number of k-means clusters; the index keeps the
  *                     c′ ≤ c of them that have members
  * @param c0           centroids retrieved per query (target clusters);
  *                     c0 ≥ c′ probes every cluster
  * @param centroidCore core-model params of the centroids retriever
  *                     (paper: H = 10, W_c = 10)
  * @param clusterCore  core-model params of each in-cluster retriever
  *                     (paper: H = 10, W_i = 5)
  * @param seed         seed of the k-means sample and seeding
  *
  * k-means trains on at most [[Lider.KMeansSample]] vectors for
  * [[Lider.KMeansIters]] Lloyd iterations.
  */
final case class LiderParams(
    c: Int = 1000,
    c0: Int = 20,
    centroidCore: CoreModelParams = CoreModelParams(rmiWidth = 10),
    clusterCore: CoreModelParams = CoreModelParams(rmiWidth = 5),
    seed: Long = 11L) {
  require(c > 0, s"LiderParams.c (clusters) must be positive, got $c")
  require(c0 > 0, s"LiderParams.c0 (target clusters per query) must be positive, got $c0")
}

/** Wall-clock nanos of the three construction stages reported in Table 5. */
final case class BuildStats(clusteringNanos: Long, centroidRetrieverNanos: Long, inClusterNanos: Long)

/** LIDER (paper §3.2): layer 1 is a core model over the k-means centroids
  * ("centroids retriever"); layer 2 is one core model per cluster
  * ("in-cluster retrievers"). Search fans out to the c0 target clusters in
  * parallel and selects the global top k from their scored candidates
  * (§6.2).
  *
  * Clusters are numbered `0 until numClusters`, and each has members
  * ([[Lider.build]] drops empty k-means clusters). The constructor rejects
  * a missing in-cluster retriever, or centroid ids other than those numbers.
  *
  * The clusters partition the corpus: every id lives in exactly one
  * in-cluster retriever: [[Lider.build]] rejects repeated global ids and
  * assigns each vector to one cluster, and a saved index keeps that. So no
  * id reaches the selection twice, and the selection needs no dedupe.
  */
final class Lider(
    val centroidsRetriever: CoreModel,
    val inClusterRetrievers: Array[CoreModel],
    val params: LiderParams)
    extends AnnIndex with Serializable {

  override def name: String = "LIDER"

  require(inClusterRetrievers.nonEmpty, "LIDER needs at least one cluster")
  for (cid <- inClusterRetrievers.indices) {
    require(inClusterRetrievers(cid) != null, s"cluster $cid has no in-cluster retriever")
    val centroids = centroidsRetriever.globalIds.count(_ == cid)
    require(centroids == 1, s"cluster $cid has $centroids centroids, not one")
  }
  require(centroidsRetriever.size == numClusters, s"${centroidsRetriever.size} centroids for $numClusters clusters")

  /** The longest in-cluster plane set. [[Lider.build]] gives every cluster
    * a prefix of one shared set, and a loaded index must too: a query is
    * hashed once under this set, and each cluster takes its keys' leading
    * bits. It is the one in-cluster plane set that the index stores and
    * that its footprint counts.
    */
  val clusterLsh: RandomHyperplaneLSH = {
    val longest = inClusterRetrievers.maxBy(_.esklsh.keyLen).esklsh.lsh
    for (cid <- inClusterRetrievers.indices)
      require(inClusterRetrievers(cid).esklsh.lsh.isPrefixOf(longest),
        s"cluster $cid's hyperplanes are not a prefix of the shared set of the other clusters")
    longest
  }

  def numClusters: Int = inClusterRetrievers.length

  /** The min(c0, [[numClusters]]) target cluster ids for a query
    * (layer-1 retrieval): c0 ≥ [[numClusters]] probes every cluster.
    */
  def targetClusters(q: Array[Float], c0: Int): Array[Int] =
    centroidsRetriever.search(q, c0).map(_.id.toInt)

  /** Full ANN query (§3.3.2): centroids retrieval → in-cluster candidates
    * → one top-k selection over all of them. The query is hashed once,
    * under the shared plane set; each cluster's candidates come from
    * [[CoreModel.candidates]] on those keys' leading bits, and are scored
    * where they are found.
    *
    * The paper keeps the top k_m = k of each cluster and heap-merges the
    * c0 lists. Under the collector's strict total order (score descending,
    * then id ascending) and with clusters that share no id, the top k of
    * the union of the clusters' candidates is exactly that merge, ids and
    * score bits, so one [[TopK.Collector]] replaces c0 of them and the
    * merge.
    *
    * In-cluster retrievers are independent, so the c0 target clusters
    * always run concurrently (§6.2's between-cluster parallelism), the
    * query's one fork: no cluster reaches the expansion fork's threshold.
    * A warm fork costs 5–8 µs (4-vCPU Xeon), and a k = 10 query's p50 read
    * 117 µs fanned out against 250 µs serial at MS-8.8M, 328 against
    * 952 µs at Wiki-21M (DESIGN.md §6). The selection runs on the calling
    * thread.
    *
    * k ≤ 0, or a query whose length is not the index dimension or that
    * has a non-finite component (checked by the centroids retriever),
    * fails with an `IllegalArgumentException`.
    */
  override def search(q: Array[Float], k: Int): Array[Scored] = {
    require(k > 0, s"k must be positive, got $k")
    val targets = targetClusters(q, params.c0)
    val keys = clusterLsh.hashAll(q)
    val perCluster = Parallel.tabulate(targets.length) { i =>
      val cm = inClusterRetrievers(targets(i))
      val rows = cm.candidates(q, k, keys, clusterLsh.keyLen)
      (rows, TopK.scores(q, cm.vectors, rows))
    }
    val top = new TopK.Collector(k)
    var i = 0
    while (i < targets.length) {
      val (rows, scores) = perCluster(i)
      top.offerAll(inClusterRetrievers(targets(i)).globalIds, rows, scores)
      i += 1
    }
    top.result()
  }
}

object Lider {

  /** Nothing under `src/main` reads this; the benchmark does, for its
    * fan-out share and a log line. [[Lider.search]] fans out at any work,
    * so this is 0.
    */
  val MinParallelWork = 0L

  /** Most corpus vectors k-means trains its centroids on; the whole corpus
    * is always assigned.
    */
  val KMeansSample = 50_000

  /** Lloyd iterations of the k-means stage (fewer if it converges). */
  val KMeansIters = 10

  /** Vectors per cluster that [[recommendedC]] aims for. */
  val TargetClusterSize = 200

  /** Builds LIDER over normalized corpus embeddings.
    *
    * Stage 1: k-means (trained on a sample of at most [[KMeansSample]]
    * vectors for [[KMeansIters]] iterations, full parallel assignment,
    * as FAISS does — mirrors the paper's note that FAISS-style accelerated
    * clustering is acceptable for this stage). Its distance loops are
    * lane-per-pair kernels over transposed double tables, which the JIT
    * vectorises; each lane sums in `VecOps.sqDist`'s order, so the clusters
    * are bit-identical to a per-pair loop's (see
    * [[repro.kmeans.KMeansModel]]). Only the c′ ≤ c clusters with members
    * are kept (duplicate vectors leave some empty), in k-means order, as
    * clusters `0 until c′`. Stage 2: centroids retriever over the
    * kept centroids. Stage 3: all in-cluster retrievers, built in parallel
    * (independent clusters). Returns stage wall times for Table 5.
    *
    * Before clustering, a corpus vector whose length differs from the
    * first's, or that has a NaN or infinite component, fails with an
    * `IllegalArgumentException` naming its index; zero vectors are kept.
    */
  def build(
      vectors: Array[Array[Float]],
      globalIds: Array[Long],
      params: LiderParams): (Lider, BuildStats) = {
    require(vectors.length == globalIds.length, s"${vectors.length} vectors but ${globalIds.length} global ids")
    require(vectors.nonEmpty, "LIDER needs a non-empty corpus")
    val seen = new java.util.HashSet[Long](globalIds.length * 2)
    for (id <- globalIds) require(seen.add(id), s"global id $id appears twice; LIDER needs distinct ids")

    VecOps.requireCorpus(vectors)

    val t0 = System.nanoTime()
    val sample = KMeans.sample(vectors, KMeansSample, params.seed)
    val km = KMeans.fit(sample, params.c, KMeansIters, params.seed)
    val members = IdOps.group(KMeans.assign(km, vectors), km.k)
    val (centroids, clusters) = km.centroids.zip(members).filter(_._2.nonEmpty).unzip
    val t1 = System.nanoTime()

    val centroidIds = Array.tabulate(centroids.length)(_.toLong)
    val centroidsRetriever = CoreModel.build(centroids, centroidIds, params.centroidCore)
    val t2 = System.nanoTime()

    // One hyperplane set shared by every in-cluster retriever (truncated to
    // each cluster's key length) — hyperplanes are data-independent, so
    // sharing changes nothing statistically but keeps the Table 5 memory
    // accounting honest across ~1000 clusters.
    val sharedLsh = RandomHyperplaneLSH(
      vectors(0).length,
      params.clusterCore.numArrays,
      ESKLSH.keyLenFor(clusters.iterator.map(_.length).max),
      params.clusterCore.seed)
    val inCluster = Parallel.tabulate(clusters.length) { cid =>
      val idx = clusters(cid)
      CoreModel.build(idx.map(vectors), idx.map(globalIds), params.clusterCore, Some(sharedLsh))
    }
    val t3 = System.nanoTime()

    (new Lider(centroidsRetriever, inCluster, params),
     BuildStats(t1 - t0, t2 - t1, t3 - t2))
  }

  /** The paper's cluster-count guidance (§7.5), at our scale: pick c so
    * clusters hold roughly [[TargetClusterSize]] vectors, floored to keep
    * layer 1 meaningful on tiny corpora.
    */
  def recommendedC(n: Int): Int = math.max(10, n / TargetClusterSize)

  /** The paper's c0 guidance (§7.5): c/100 ~ c/50, floored at 3. */
  def recommendedC0(c: Int): Int = math.max(3, c / 50)
}
