package repro.baselines

import repro.core.{AnnIndex, Scored, TopK}
import repro.esklsh.ESKLSH
import repro.linalg.VecOps

/** The *original* SortingKeys-LSH (paper baseline 8, [23]), kept faithful
  * to what LIDER improves on:
  *
  *  - original hashkey distance (Eq. 4; `KD ≡ 1` under binary hashes —
  *    the "low resolution problem"),
  *  - *iterative globally-closest* expansion across the H arrays instead
  *    of parallel per-array expansion,
  *  - start positions located by binary search (no RMI),
  *  - one flat index over the whole corpus (no clustering) — which is why
  *    its memory in Table 5 dwarfs LIDER's.
  *
  * The shared [[repro.esklsh.ESKLSH]] machinery provides the arrays; this
  * class only uses its original-SK-LSH code paths.
  */
final class SKLSH(
    vectors: Array[Array[Float]],
    ids: Array[Long],
    val esklsh: ESKLSH,
    r0: Int)
    extends AnnIndex {

  override def name: String = "SK-LSH"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    VecOps.requireQuery(q, esklsh.lsh.dim)
    val queryKeys = esklsh.hashQuery(q)
    val starts = Array.tabulate(esklsh.numArrays)(h => esklsh.arrays(h).insertionPoint(queryKeys(h)))
    // Same total candidate budget as LIDER-style expansion: R per array,
    // in Long and clamped to every entry, so no r0 or k wraps it.
    val total = math.min(math.max(1L, r0.toLong * k), esklsh.size.toLong) * esklsh.numArrays
    val cands = esklsh.expandIterativeGlobal(queryKeys, starts, total.toInt)
    TopK.verify(q, vectors, ids, cands, k)
  }
}

object SKLSH {
  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      numArrays: Int,
      keyLen: Int,
      r0: Int = 3,
      seed: Long = 19L): SKLSH = {
    // b is irrelevant to the original distance; pass 1 for completeness.
    val esk = ESKLSH.build(vectors, numArrays, keyLen, 1, seed)
    new SKLSH(vectors, ids, esk, r0)
  }
}
