package repro.baselines

import repro.core.{AnnIndex, Scored, TopK}
import repro.linalg.VecOps

/** Exact brute-force search (FAISS IndexFlat in the paper) — the quality
  * upper bound and the slowest method of Table 2 / Figure 4. Every row is
  * scored by [[TopK.verify]], so scores have `VecOps.dot`'s bits.
  */
final class Flat(vectors: Array[Array[Float]], ids: Array[Long]) extends AnnIndex {
  require(vectors.length == ids.length)

  override def name: String = "Flat"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    if (vectors.nonEmpty) VecOps.requireQuery(q, vectors(0).length)
    TopK.verify(q, vectors, ids, null, k)
  }
}
