package repro.baselines

import repro.core.{Scored, TopK}
import repro.kmeans.KMeans
import repro.linalg.{Parallel, VecOps}

/** PQ baseline (paper §7.1.2 baseline 2): all corpus vectors encoded with
  * a product quantizer; search is a full ADC scan with inner-product
  * lookup tables (the corpus is normalized, so IP ≡ cosine).
  */
final class PQIndex(
    val pq: ProductQuantizer,
    codes: Array[Byte], // flat, n*m
    ids: Array[Long])
    extends AnnIndex {

  val n: Int = ids.length

  override def name: String = "PQ"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    VecOps.requireDim(q, pq.dim)
    val lut = pq.lutIP(q)
    val top = new TopK.Collector(k)
    var i = 0
    while (i < n) { top.offer(ids(i), pq.adc(lut, codes, i * pq.m)); i += 1 }
    top.result()
  }
}

object PQIndex {
  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      m: Int,
      bits: Int,
      trainSample: Int = 20_000,
      seed: Long = 29L): PQIndex = {
    val sample = KMeans.sample(vectors, trainSample, seed)
    val pq = ProductQuantizer.fit(sample, m, bits, seed = seed)
    new PQIndex(pq, encodeAll(pq, vectors), ids)
  }

  /** Parallel corpus encoding into a flat code array. */
  def encodeAll(pq: ProductQuantizer, vectors: Array[Array[Float]]): Array[Byte] = {
    val codes = new Array[Byte](vectors.length * pq.m)
    Parallel.foreachRange(vectors.length) { i =>
      val c = pq.encode(vectors(i))
      System.arraycopy(c, 0, codes, i * pq.m, pq.m)
    }
    codes
  }
}
