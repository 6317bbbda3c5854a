package repro.core

import repro.esklsh.ESKLSH
import repro.lsh.RandomHyperplaneLSH

/** Exact byte accounting of index structures for the Table 5 memory
  * comparison (LIDER vs original SK-LSH).
  *
  * Like the paper, the numbers *exclude* the corpus embeddings — they are
  * purely the space the indexes add. We account structure arrays at their
  * primitive sizes instead of sampling JVM heap (GC makes heap deltas
  * noisy and non-deterministic); the LIDER-vs-SK-LSH *ratio* is what the
  * table is about and it is fully determined by these structures.
  * Each sorted-array entry is bit-packed, an M-bit key and a
  * ceil(log2 n)-bit local id (see SortedKeyArray), so the paper's
  * per-cluster hashkey shrink is real bytes here too.
  */
object IndexFootprint {

  private val BytesPerLinearModel = 16L // slope + intercept doubles

  /** Hyperplane bytes of one plane set (H × M × dim floats). */
  def planesBytes(lsh: RandomHyperplaneLSH): Long =
    lsh.numKeys.toLong * lsh.keyLen * lsh.dim * 4L

  /** Sorted arrays (packed key and id entries) of one ESK-LSH instance,
    * plus its hyperplanes unless they are shared (LIDER's in-cluster
    * retrievers share one plane set — counted once by [[liderBytes]]).
    */
  def esklshBytes(e: ESKLSH, includePlanes: Boolean = true): Long = {
    val arrays = e.arrays.map(_.sizeBytes).sum
    arrays + (if (includePlanes) planesBytes(e.lsh) else 0L)
  }

  /** One core model: ESK-LSH + rescalers + RMIs (+ the id remap). */
  def coreModelBytes(cm: CoreModel, includePlanes: Boolean = true): Long = {
    val rmi = cm.rmis.map(r => (1L + r.leaves.length) * BytesPerLinearModel + 8L).sum
    val rescalers = cm.rescalers.length.toLong * 24L // min, max, len
    val idMap = cm.globalIds.length.toLong * 8L
    esklshBytes(cm.esklsh, includePlanes) + rmi + rescalers + idMap
  }

  /** Full LIDER: centroid vectors (index structure, not corpus data, held
    * by the centroids retriever) + centroids retriever + all in-cluster
    * retrievers, whose hyperplanes are one shared set, [[Lider.clusterLsh]],
    * counted once.
    */
  def liderBytes(l: Lider): Long = {
    val centroids = l.centroidsRetriever
    val centroidVecs = centroids.size.toLong * centroids.esklsh.lsh.dim * 4L
    val cr = coreModelBytes(centroids)
    val irs = l.inClusterRetrievers.iterator.map(coreModelBytes(_, includePlanes = false)).sum
    centroidVecs + cr + irs + planesBytes(l.clusterLsh)
  }
}
