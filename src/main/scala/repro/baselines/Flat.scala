package repro.baselines

import repro.core.{Scored, TopK}
import repro.linalg.VecOps

/** Exact brute-force search (FAISS IndexFlat in the paper) — the quality
  * upper bound and the slowest method of Table 2 / Figure 4.
  */
final class Flat(vectors: Array[Array[Float]], ids: Array[Long]) extends AnnIndex {
  require(vectors.length == ids.length)

  override def name: String = "Flat"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    if (vectors.nonEmpty) VecOps.requireDim(q, vectors(0).length)
    val top = new TopK.Collector(k)
    var i = 0
    while (i < vectors.length) { top.offer(ids(i), VecOps.dot(q, vectors(i))); i += 1 }
    top.result()
  }
}
