package repro.baselines

import repro.core.{AnnIndex, Scored, TopK}
import repro.kmeans.{KMeans, KMeansModel}
import repro.linalg.{IdOps, Parallel, VecOps}

/** IVFADC baseline (paper §7.1.2 baselines 5–6, Jégou et al. [11]):
  * a coarse k-means quantizer with `C = ceil(sqrt N)` centroids partitions
  * the corpus into inverted lists; residuals (x − centroid) are PQ-encoded.
  * Search probes the `p` nearest inverted lists and scores entries by
  *
  *   score(x) ≈ q·centroid + q·decode(residual codes)   (IP metric)
  *
  * via ADC lookup tables on the residual codebooks.
  *
  * When `hnsw` is present, the query-time coarse assignment (which lists
  * to probe) runs on an HNSW graph over the centroids instead of a linear
  * scan — exactly the IVFPQ-HNSW variant of the paper.
  */
final class IVFPQIndex(
    coarse: KMeansModel,
    pq: ProductQuantizer,
    listIds: Array[Array[Long]], // per coarse centroid: passage ids
    listCodes: Array[Array[Byte]], // per coarse centroid: flat residual codes
    probes: Int,
    hnsw: Option[HNSW])
    extends AnnIndex {

  override def name: String = if (hnsw.isDefined) "IVFPQ-HNSW" else "IVFPQ"

  /** Which inverted lists to probe for `q`. */
  def probeLists(q: Array[Float]): Array[Int] = hnsw match {
    case Some(g) => g.searchKnn(q, probes, ef = math.max(32, probes))
    case None => coarse.nearestN(q, probes)
  }

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    VecOps.requireQuery(q, pq.dim)
    val lut = pq.lutIP(q)
    val lists = probeLists(q)
    val top = new TopK.Collector(k)
    var li = 0
    while (li < lists.length) {
      val c = lists(li)
      val qDotC = VecOps.dot(q, coarse.centroids(c))
      val ids = listIds(c)
      val codes = listCodes(c)
      var i = 0
      while (i < ids.length) { top.offer(ids(i), qDotC + pq.adc(lut, codes, i * pq.m)); i += 1 }
      li += 1
    }
    top.result()
  }
}

object IVFPQIndex {

  /** @param useHnsw  build the IVFPQ-HNSW variant (paper: HNSW with 32
    *                 neighbors per node and search depth 32 over centroids)
    */
  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      numCoarse: Int,
      m: Int,
      bits: Int,
      probes: Int,
      useHnsw: Boolean,
      trainSample: Int = 20_000,
      seed: Long = 41L): IVFPQIndex = {
    val sample = KMeans.sample(vectors, trainSample, seed)
    val coarse = KMeans.fit(sample, numCoarse, maxIters = 12, seed = seed)
    val assign = KMeans.assign(coarse, vectors)

    // Residual PQ trained on sampled residuals.
    val residualSample = sample.map { v => VecOps.sub(v, coarse.centroids(coarse.nearest(v))) }
    val pq = ProductQuantizer.fit(residualSample, m, bits, seed = seed + 1)

    val k = coarse.k
    val memberIdx = IdOps.group(assign, k)

    val listIds = new Array[Array[Long]](k)
    val listCodes = new Array[Array[Byte]](k)
    Parallel.foreachRange(k) { c =>
      val idx = memberIdx(c)
      val lid = new Array[Long](idx.length)
      val codes = new Array[Byte](idx.length * pq.m)
      var j = 0
      while (j < idx.length) {
        val v = vectors(idx(j))
        lid(j) = ids(idx(j))
        val code = pq.encode(VecOps.sub(v, coarse.centroids(c)))
        System.arraycopy(code, 0, codes, j * pq.m, pq.m)
        j += 1
      }
      listIds(c) = lid
      listCodes(c) = codes
    }

    val hnsw =
      if (useHnsw) Some(new HNSW(coarse.centroids, m = 32, efConstruction = 32, seed = seed + 2))
      else None
    new IVFPQIndex(coarse, pq, listIds, listCodes, probes, hnsw)
  }
}
