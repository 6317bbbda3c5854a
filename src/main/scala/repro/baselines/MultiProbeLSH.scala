package repro.baselines

import repro.core.{Scored, TopK}
import repro.linalg.VecOps
import repro.lsh.RandomHyperplaneLSH

/** Multi-probe LSH baseline standing in for FALCONN (paper §7.1.2
  * baseline 7; FALCONN is itself built on multi-probe LSH, Lv et al. [24]).
  *
  * `numTables` hyperplane hash tables over packed binary keys. At query
  * time each table is probed with the query's own bucket plus the
  * `probesPerTable − 1` most promising perturbed buckets, generated
  * best-first over perturbation sets ranked by the summed squared margins
  * of the flipped bits (the classic multi-probe ordering: bits whose
  * projections sit closest to the hyperplane are flipped first).
  */
final class MultiProbeLSH(
    vectors: Array[Array[Float]],
    ids: Array[Long],
    lsh: RandomHyperplaneLSH,
    tables: Array[java.util.HashMap[Long, Array[Int]]],
    probesPerTable: Int)
    extends AnnIndex {

  override def name: String = "FALCONN"

  override def search(q: Array[Float], k: Int): Array[Scored] = {
    VecOps.requireDim(q, lsh.dim)
    val seen = new java.util.HashSet[Int]()
    val cands = new scala.collection.mutable.ArrayBuffer[Int]()
    var t = 0
    while (t < tables.length) {
      val key = lsh.hash(q, t)
      val margins = lsh.margins(q, t)
      val probeKeys = MultiProbeLSH.probeSequence(key, margins, lsh.keyLen, probesPerTable)
      var p = 0
      while (p < probeKeys.length) {
        val bucket = tables(t).get(probeKeys(p))
        if (bucket != null) {
          var i = 0
          while (i < bucket.length) {
            if (seen.add(bucket(i))) cands += bucket(i)
            i += 1
          }
        }
        p += 1
      }
      t += 1
    }
    TopK.verify(q, vectors, ids, cands.toArray, k)
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

  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      numTables: Int,
      keyLen: Int,
      probesPerTable: Int,
      seed: Long = 43L): MultiProbeLSH = {
    val dim = vectors(0).length
    val lsh = RandomHyperplaneLSH(dim, numTables, keyLen, seed)
    val tables = repro.linalg.Parallel.tabulate(numTables) { t =>
      val grouped = new java.util.HashMap[Long, scala.collection.mutable.ArrayBuffer[Int]]()
      var i = 0
      while (i < vectors.length) {
        val key = lsh.hash(vectors(i), t)
        var buf = grouped.get(key)
        if (buf == null) { buf = new scala.collection.mutable.ArrayBuffer[Int](); grouped.put(key, buf) }
        buf += i
        i += 1
      }
      val frozen = new java.util.HashMap[Long, Array[Int]](grouped.size())
      grouped.forEach((k, v) => frozen.put(k, v.toArray))
      frozen
    }
    new MultiProbeLSH(vectors, ids, lsh, tables, probesPerTable)
  }
}
