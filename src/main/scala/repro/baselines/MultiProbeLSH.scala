package repro.baselines

import repro.core.{AnnIndex, Scored, TopK}
import repro.esklsh.ESKLSH
import repro.linalg.{IdOps, VecOps}

/** Multi-probe LSH baseline standing in for FALCONN (paper §7.1.2
  * baseline 7; FALCONN is itself built on multi-probe LSH, Lv et al. [24]).
  *
  * `numTables` hyperplane hash functions, each table one ESK-LSH sorted
  * hashkey array: a bucket is the run of entries with one key
  * ([[repro.esklsh.SortedKeyArray.idsWithKey]]). At query time each table
  * is probed with the query's own bucket plus the `probesPerTable − 1` most
  * promising perturbed buckets, generated best-first over perturbation sets
  * ranked by the summed squared margins of the flipped bits (the classic
  * multi-probe ordering: bits whose projections sit closest to the
  * hyperplane are flipped first). The probed buckets' rows, in table then
  * probe order, are deduped first-seen ([[IdOps.distinct]]) and verified
  * by exact score.
  */
final class MultiProbeLSH(
    vectors: Array[Array[Float]],
    ids: Array[Long],
    esklsh: ESKLSH,
    probesPerTable: Int)
    extends AnnIndex {

  override def name: String = "FALCONN"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    val lsh = esklsh.lsh
    VecOps.requireQuery(q, lsh.dim)
    val probed = new scala.collection.mutable.ArrayBuilder.ofRef[Array[Int]]
    var t = 0
    while (t < esklsh.numArrays) {
      val margins = lsh.margins(q, t)
      val key = lsh.key(margins)
      val probeKeys = MultiProbeLSH.probeSequence(key, margins, lsh.keyLen, probesPerTable)
      var p = 0
      while (p < probeKeys.length) {
        probed += esklsh.arrays(t).idsWithKey(probeKeys(p))
        p += 1
      }
      t += 1
    }
    TopK.verify(q, vectors, ids, IdOps.distinct(probed.result(), vectors.length), k)
  }
}

object MultiProbeLSH {

  /** Best-first perturbation-set enumeration (Lv et al.): bits sorted by
    * |margin| ascending; a perturbation set is a set of sorted-positions
    * to flip, with cost Σ margin². Expansion uses the classic *shift*
    * (replace the max element j by j+1) and *expand* (add j+1) moves,
    * which enumerate sets in non-decreasing cost order. The unperturbed
    * key is always probed first.
    */
  def probeSequence(key: Long, margins: Array[Double], m: Int, numProbes: Int): Array[Long] = {
    if (numProbes <= 1) return Array(key)
    // Rank bit indices by |margin| ascending; z(r) = squared margin of rank r.
    val ranked = margins.zipWithIndex.map { case (mg, i) => (mg * mg, i) }.sortBy(_._1)
    val z = ranked.map(_._1)
    val bitOf = ranked.map(_._2)

    final case class PSet(positions: List[Int], cost: Double)
    val heap = new java.util.PriorityQueue[PSet]((a: PSet, b: PSet) => java.lang.Double.compare(a.cost, b.cost))
    heap.offer(PSet(List(0), z(0)))

    val out = new scala.collection.mutable.ArrayBuffer[Long](numProbes)
    out += key
    while (out.length < numProbes && !heap.isEmpty) {
      val ps = heap.poll()
      var flipped = key
      ps.positions.foreach { r =>
        val bit = m - 1 - bitOf(r) // bit position from LSB in the packed key
        flipped ^= (1L << bit)
      }
      out += flipped
      val maxR = ps.positions.head // positions kept max-first
      if (maxR + 1 < m) {
        heap.offer(PSet((maxR + 1) :: ps.positions.tail, ps.cost - z(maxR) + z(maxR + 1))) // shift
        heap.offer(PSet((maxR + 1) :: ps.positions, ps.cost + z(maxR + 1))) // expand
      }
    }
    out.toArray
  }

  /** The tables are ESK-LSH's sorted arrays, as SK-LSH builds them. A
    * `keyLen` whose entries exceed 63 bits ([[repro.esklsh.SortedKeyArray]])
    * fails before anything is hashed.
    */
  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      numTables: Int,
      keyLen: Int,
      probesPerTable: Int,
      seed: Long = 43L): MultiProbeLSH =
    new MultiProbeLSH(vectors, ids, ESKLSH.build(vectors, numTables, keyLen, seed), probesPerTable)
}
