package repro.esklsh

import java.io.{DataInputStream, DataOutputStream}

/** One sorted hashkey array of ESK-LSH (the yellow boxes of paper Fig. 1).
  *
  * The array is one bit stream of `Long` words. Position `i` is one entry
  * `(key << idBits) | id` of at most 63 bits, `idBits = ceil(log2 length)`
  * and `id` the local index of the vector whose hashkey it is, so entry
  * order is (key asc, id asc). Both fields scale with the cluster, like the
  * paper's string hashkeys do, so LIDER's per-cluster hashkey shrink (M =
  * ceil(log2 cluster-size) ≪ corpus-level M) shows up as real memory
  * savings in Table 5. The persisted form ([[write]]/[[read]]) is the same words.
  */
final class SortedKeyArray private (private val bits: Array[Long], val length: Int, val m: Int)
    extends Serializable {

  private val idBits = SortedKeyArray.idBitsFor(length)
  private val width = m + idBits
  private val idMask = (1L << idBits) - 1

  /** The entry at sorted position `i`, in one read; [[keyOf]] and [[idOf]] split it. */
  def entry(i: Int): Long = SortedKeyArray.get(bits, i.toLong * width, width)

  def keyOf(entry: Long): Long = entry >>> idBits

  def idOf(entry: Long): Int = (entry & idMask).toInt

  /** Materializes all keys (build-time convenience for RMI training and
    * tests — not retained by the index).
    */
  def keys: Array[Long] = Array.tabulate(length)(i => keyOf(entry(i)))

  /** Bytes held by this array's bit stream. */
  def sizeBytes: Long = bits.length.toLong * 8

  /** Insertion point of the `m`-bit key `k`: the first entry ≥ `k << idBits`. */
  def insertionPoint(k: Long): Int = {
    require(k >>> m == 0, s"key $k is not an $m-bit key")
    val first = k << idBits
    var lo = 0; var hi = length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (entry(mid) < first) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The local ids whose key is the `m`-bit key `k`, ascending: the run of
    * entries from [[insertionPoint]] while the key is `k`. This run is one
    * multi-probe LSH bucket.
    */
  def idsWithKey(k: Long): Array[Int] = {
    val start = insertionPoint(k)
    var end = start
    while (end < length && keyOf(entry(end)) == k) end += 1
    val out = new Array[Int](end - start)
    var i = 0
    while (i < out.length) { out(i) = idOf(entry(start + i)); i += 1 }
    out
  }

  /** Writes the bit stream's words, which [[SortedKeyArray.read]] reads. */
  def write(out: DataOutputStream): Unit = bits.foreach(out.writeLong)
}

object SortedKeyArray {

  private def idBitsFor(n: Int): Int =
    if (n <= 1) 1 else 64 - java.lang.Long.numberOfLeadingZeros((n - 1).toLong)

  /** Rejects a key length `m` whose entries over `n` positions exceed 63 bits. */
  private[esklsh] def requireFits(m: Int, n: Int): Unit = {
    val idBits = idBitsFor(n)
    require(n >= 0 && m >= 1 && m + idBits <= 63, s"sorted-array key length M = $m does not fit n = $n: " +
      s"an entry holds M key bits and ceil(log2 n) = $idBits id bits in at most 63, so M must be in [1, ${63 - idBits}]")
  }

  private def words(n: Int, m: Int): Int = ((n.toLong * (m + idBitsFor(n)) + 63) >>> 6).toInt

  /** The `width` bits (1–63) at bit `pos`, most significant first. */
  private def get(bits: Array[Long], pos: Long, width: Int): Long = {
    val word = (pos >>> 6).toInt
    val off = (pos & 63).toInt
    val v = (bits(word) << off) >>> (64 - width)
    val spill = off + width - 64
    if (spill <= 0) v else v | (bits(word + 1) >>> (64 - spill))
  }

  /** ORs `v` (< 2^width) into the zeroed `width` bits at bit `pos`. */
  private def put(bits: Array[Long], pos: Long, width: Int, v: Long): Unit = {
    val word = (pos >>> 6).toInt
    val off = (pos & 63).toInt
    val spill = off + width - 64
    if (spill <= 0) bits(word) |= v << -spill
    else { bits(word) |= v >>> spill; bits(word + 1) |= v << (64 - spill) }
  }

  /** Reads the words `write` wrote for `n` entries of `m`-bit keys. */
  def read(in: DataInputStream, n: Int, m: Int): SortedKeyArray = {
    requireFits(m, n)
    new SortedKeyArray(Array.fill(words(n, m))(in.readLong()), n, m)
  }

  /** Sorts the entries `(key << idBits) | id` as primitive `Long`s and
    * writes each as it is into one bit stream.
    */
  def build(hashkeys: Array[Long], m: Int): SortedKeyArray = {
    val n = hashkeys.length
    requireFits(m, n)
    val idBits = idBitsFor(n)
    val width = m + idBits
    val entries = new Array[Long](n)
    var i = 0
    while (i < n) { entries(i) = (hashkeys(i) << idBits) | i.toLong; i += 1 }
    java.util.Arrays.sort(entries)
    val bits = new Array[Long](words(n, m))
    i = 0
    while (i < n) { put(bits, i.toLong * width, width, entries(i)); i += 1 }
    new SortedKeyArray(bits, n, m)
  }
}
