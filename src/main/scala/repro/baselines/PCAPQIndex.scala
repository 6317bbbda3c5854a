package repro.baselines

import repro.core.{AnnIndex, Scored, TopK}
import repro.kmeans.KMeans
import repro.linalg.{PCA, Parallel, VecOps}

/** PCA-PQ baseline (paper §7.1.2 baseline 4, Jégou et al. [12]): PCA
  * reduces the dimension (768 → 192 in the paper, dim → dim/4 here), then
  * PQ encodes in the reduced space. Ranking is by squared-L2 ADC in PCA
  * space — on normalized inputs L2 ranking ≡ cosine ranking, and the PCA
  * projection approximately preserves L2 distances.
  */
final class PCAPQIndex(
    val pca: PCA,
    val pq: ProductQuantizer,
    codes: Array[Byte],
    ids: Array[Long])
    extends AnnIndex {

  val n: Int = ids.length

  override def name: String = "PCA-PQ"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    VecOps.requireQuery(q, pca.mean.length)
    val lut = pq.lutL2(pca.transform(q))
    val top = new TopK.Collector(k)
    var i = 0
    while (i < n) {
      top.offer(ids(i), -pq.adc(lut, codes, i * pq.m)) // negate: smaller distance = better
      i += 1
    }
    top.result()
  }
}

object PCAPQIndex {
  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      outDim: Int,
      m: Int,
      bits: Int,
      trainSample: Int = 20_000,
      seed: Long = 37L): PCAPQIndex = {
    val sample = KMeans.sample(vectors, trainSample, seed)
    val pca = PCA.fit(sample, outDim)
    val reducedSample = sample.map(pca.transform)
    val pq = ProductQuantizer.fit(reducedSample, m, bits, seed = seed)
    val reducedAll = Parallel.tabulate(vectors.length)(i => pca.transform(vectors(i)))
    val codes = PQIndex.encodeAll(pq, reducedAll)
    new PCAPQIndex(pca, pq, codes, ids)
  }
}
