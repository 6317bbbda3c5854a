package repro.esklsh

import repro.linalg.{IdOps, Parallel}
import repro.lsh.{Hashkey, RandomHyperplaneLSH}

/** Extended SK-LSH (paper §4): hyperplane LSH for cosine similarity,
  * `H` sorted hashkey arrays, the extended hashkey distance `dist_e`
  * (Eq. 7), and *parallel, per-array-local* bi-directional expansion
  * (§4.3) instead of the original iterative globally-closest expansion.
  *
  * @param lsh    the base LSH model (H compound functions of length M)
  * @param arrays one sorted array per compound function
  * @param b      window width B of KD_e (Eq. 6); C = 2^B
  */
final class ESKLSH(val lsh: RandomHyperplaneLSH, val arrays: Array[SortedKeyArray], val b: Int)
    extends Serializable {

  def numArrays: Int = arrays.length
  def keyLen: Int = lsh.keyLen
  def size: Int = if (arrays.isEmpty) 0 else arrays(0).length

  /** Query hashkeys, one per array. */
  def hashQuery(q: Array[Float]): Array[Long] = lsh.hashAll(q)

  /** Bi-directional expansion on a single array (paper §3.3.1): starting
    * from `start` (an RMI prediction, or an insertion point for the
    * baseline), repeatedly takes whichever side's frontier hashkey is
    * closer to the query hashkey by `dist_e`, until `range` candidates are
    * collected or the array is exhausted. Returns positions' vector ids.
    */
  def expandOne(arrayIdx: Int, queryKey: Long, start: Int, range: Int): Array[Int] = {
    val arr = arrays(arrayIdx)
    val n = arr.length
    if (n == 0) return Array.emptyIntArray
    val take = math.min(range, n)
    val out = new Array[Int](take)
    // Left frontier l points at the last position ≤ start-ish side; right
    // frontier r at the next position. `start` itself is consumed first via r.
    var r = math.min(n - 1, math.max(0, start))
    var l = r - 1
    // Each frontier's entry is read, and its dist_e computed, once: when that frontier moves.
    var el = if (l >= 0) arr.entry(l) else 0L
    var er = arr.entry(r)
    var dl = if (l >= 0) Hashkey.distExtended(arr.keyOf(el), queryKey, arr.m, b) else 0.0
    var dr = Hashkey.distExtended(arr.keyOf(er), queryKey, arr.m, b)
    var filled = 0
    while (filled < take) {
      val takeLeft = r >= n || (l >= 0 && dl < dr)
      if (takeLeft) {
        out(filled) = arr.idOf(el); l -= 1
        if (l >= 0) { el = arr.entry(l); dl = Hashkey.distExtended(arr.keyOf(el), queryKey, arr.m, b) }
      } else {
        out(filled) = arr.idOf(er); r += 1
        if (r < n) { er = arr.entry(r); dr = Hashkey.distExtended(arr.keyOf(er), queryKey, arr.m, b) }
      }
      filled += 1
    }
    out
  }

  /** Expansion over all arrays (the §4.3 improvement): each array expands
    * independently with its *local* frontier; results are unioned.
    * Returns distinct candidate vector ids.
    *
    * Arrays are independent, so a long sweep forks over them. One array's
    * walk costs 2.4–3 µs at R = 300 and a warm fork 5–8 µs (4-vCPU Xeon),
    * so below [[ESKLSH.MinParallelWork]] total steps the sweep is serial.
    * No in-cluster retriever reaches it (10 arrays of ~200 entries);
    * Table 3's standalone H = 32–64 sweeps over 210k entries do.
    */
  def expandAll(queryKeys: Array[Long], starts: Array[Int], range: Int): Array[Int] = {
    val totalWork = arrays.length.toLong * math.min(range, size)
    val perArray =
      if (totalWork >= ESKLSH.MinParallelWork)
        Parallel.tabulate(arrays.length)(h => expandOne(h, queryKeys(h), starts(h), range))
      else
        Array.tabulate(arrays.length)(h => expandOne(h, queryKeys(h), starts(h), range))
    IdOps.distinct(perArray, size)
  }

  /** Original SK-LSH expansion (the baseline this paper improves on):
    * iterative — at every step scan *all* arrays' frontiers and consume the
    * globally closest hashkey by the *original* distance (Eq. 4, KD ≡ 1
    * under binary hashes). Collects `total` candidates overall (at most
    * every entry), then drops repeats as [[expandAll]] does.
    */
  def expandIterativeGlobal(queryKeys: Array[Long], starts: Array[Int], total: Int): Array[Int] = {
    val hN = arrays.length
    val ls = new Array[Int](hN); val rs = new Array[Int](hN)
    // Each frontier's entry, read when the frontier moves; -1 (no entry is) once that side is exhausted.
    val els = new Array[Long](hN); val ers = new Array[Long](hN)
    def entryAt(h: Int, i: Int): Long = if (i >= 0 && i < arrays(h).length) arrays(h).entry(i) else -1L
    var h = 0
    while (h < hN) {
      rs(h) = math.min(math.max(0, starts(h)), math.max(0, arrays(h).length - 1))
      ls(h) = rs(h) - 1
      els(h) = entryAt(h, ls(h)); ers(h) = entryAt(h, rs(h))
      h += 1
    }
    // Each step takes one entry, so this fills before every frontier is exhausted.
    val out = new Array[Int](math.max(0L, math.min(total.toLong, hN.toLong * size)).toInt)
    var n = 0
    while (n < out.length) {
      var bestH = -1; var bestLeft = false; var bestD = Double.MaxValue
      h = 0
      while (h < hN) {
        val arr = arrays(h)
        if (els(h) >= 0) {
          val d = Hashkey.distOriginal(arr.keyOf(els(h)), queryKeys(h), arr.m)
          if (d < bestD) { bestD = d; bestH = h; bestLeft = true }
        }
        if (ers(h) >= 0) {
          val d = Hashkey.distOriginal(arr.keyOf(ers(h)), queryKeys(h), arr.m)
          if (d < bestD) { bestD = d; bestH = h; bestLeft = false }
        }
        h += 1
      }
      if (bestLeft) { out(n) = arrays(bestH).idOf(els(bestH)); ls(bestH) -= 1; els(bestH) = entryAt(bestH, ls(bestH)) }
      else { out(n) = arrays(bestH).idOf(ers(bestH)); rs(bestH) += 1; ers(bestH) = entryAt(bestH, rs(bestH)) }
      n += 1
    }
    IdOps.distinct(Array(out), size)
  }
}

object ESKLSH {

  /** Minimum total expansion steps (arrays × range) before expandAll forks:
    * at ~8 ns a step, 4096 steps are ~30 µs, several times a fork's cost.
    */
  val MinParallelWork = 4096L

  /** Hashes all vectors under `numArrays` compound functions and builds the
    * sorted arrays. Hashing is parallel over vectors (offline build).
    * A `keyLen` too wide for 63-bit entries ([[SortedKeyArray]]) fails before anything is hashed.
    *
    * @param sharedLsh hyperplanes to reuse (truncated to `keyLen`) instead
    *                  of drawing fresh ones — LIDER shares one plane set
    *                  across all in-cluster retrievers (Table 5 memory)
    */
  def build(
      vectors: Array[Array[Float]],
      numArrays: Int,
      keyLen: Int,
      b: Int,
      seed: Long,
      sharedLsh: Option[RandomHyperplaneLSH] = None): ESKLSH = {
    require(vectors.nonEmpty, "ESK-LSH needs vectors")
    SortedKeyArray.requireFits(keyLen, vectors.length)
    val dim = vectors(0).length
    val lsh = sharedLsh match {
      case Some(master) =>
        require(master.dim == dim && master.numKeys == numArrays,
          s"shared LSH shape mismatch: ${master.dim}x${master.numKeys} vs ${dim}x$numArrays")
        master.truncate(keyLen)
      case None => RandomHyperplaneLSH(dim, numArrays, keyLen, seed)
    }
    val perArrayKeys = Array.fill(numArrays)(new Array[Long](vectors.length))
    Parallel.foreachRange(vectors.length) { i =>
      val ks = lsh.hashAll(vectors(i))
      var h = 0
      while (h < numArrays) { perArrayKeys(h)(i) = ks(h); h += 1 }
    }
    val arrays = Parallel.tabulate(numArrays)(h => SortedKeyArray.build(perArrayKeys(h), keyLen))
    new ESKLSH(lsh, arrays, b)
  }

  /** Hashkey length rule from the paper (§6): M = ceil(log2 N), floored at
    * 4 bits for tiny clusters and capped at the packed-Long limit.
    */
  def keyLenFor(n: Int): Int =
    math.min(Hashkey.MaxLen, math.max(4, math.ceil(math.log(math.max(2, n)) / math.log(2)).toInt))
}
