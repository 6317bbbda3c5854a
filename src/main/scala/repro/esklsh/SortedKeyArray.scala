package repro.esklsh

import java.io.{DataInputStream, DataOutputStream}

/** One sorted hashkey array of ESK-LSH (the yellow boxes of paper Fig. 1).
  *
  * The array is one bit stream of `Long` words. Position `i` is one entry
  * of `m + idBits` bits, `idBits = ceil(log2 length)`: the key, then the
  * local index of the vector whose hashkey it is. Order is (key asc, id
  * asc). Both fields scale with the cluster, like the paper's string
  * hashkeys do, so LIDER's per-cluster hashkey shrink (M = ceil(log2
  * cluster-size) ≪ corpus-level M) shows up as real memory savings in
  * Table 5. The persisted form ([[write]]/[[read]]) is the same words.
  */
final class SortedKeyArray private (private val bits: Array[Long], val length: Int, val m: Int)
    extends Serializable {

  private val idBits = SortedKeyArray.idBitsFor(length)
  private val width = m + idBits

  /** The key at sorted position `i`. */
  def key(i: Int): Long = SortedKeyArray.get(bits, i.toLong * width, m)

  /** The local vector id at sorted position `i`. */
  def id(i: Int): Int = SortedKeyArray.get(bits, i.toLong * width + m, idBits).toInt

  /** Materializes all keys (build-time convenience for RMI training and
    * tests — not retained by the index).
    */
  def keys: Array[Long] = Array.tabulate(length)(key)

  /** Bytes held by this array's bit stream. */
  def sizeBytes: Long = bits.length.toLong * 8

  /** Insertion point of `key`: the first position whose key is ≥ `key`. */
  def insertionPoint(k: Long): Int = {
    var lo = 0; var hi = length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (key(mid) < k) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Writes the bit stream's words, which [[SortedKeyArray.read]] reads. */
  def write(out: DataOutputStream): Unit = bits.foreach(out.writeLong)
}

object SortedKeyArray {

  private def idBitsFor(n: Int): Int =
    if (n <= 1) 1 else 64 - java.lang.Long.numberOfLeadingZeros((n - 1).toLong)

  private def words(n: Int, m: Int): Int = ((n.toLong * (m + idBitsFor(n)) + 63) >>> 6).toInt

  /** The `width` bits (1–64) at bit `pos`, most significant first. */
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
    require(n >= 0 && m >= 1 && m <= 64, s"bad sorted-array shape: n=$n, m=$m")
    new SortedKeyArray(Array.fill(words(n, m))(in.readLong()), n, m)
  }

  /** Sorts (hashkey, id) pairs into one bit stream.
    *
    * Fast path: when an entry fits in 63 bits, sort the entries themselves
    * (`(key << idBits) | id`) primitively — same order (key asc, id asc on
    * ties) with zero boxing — and write each as it is. Falls back to a
    * boxed sort for longer entries.
    */
  def build(hashkeys: Array[Long], m: Int): SortedKeyArray = {
    val n = hashkeys.length
    val idBits = idBitsFor(n)
    val width = m + idBits
    val bits = new Array[Long](words(n, m))
    if (width <= 63) {
      val sortable = new Array[Long](n)
      var i = 0
      while (i < n) { sortable(i) = (hashkeys(i) << idBits) | i.toLong; i += 1 }
      java.util.Arrays.sort(sortable)
      i = 0
      while (i < n) { put(bits, i.toLong * width, width, sortable(i)); i += 1 }
    } else {
      val boxed = Array.tabulate(n)(Integer.valueOf)
      java.util.Arrays.sort(
        boxed,
        (a: Integer, b: Integer) => {
          val c = java.lang.Long.compare(hashkeys(a), hashkeys(b))
          if (c != 0) c else Integer.compare(a, b)
        }
      )
      var i = 0
      while (i < n) {
        val src = boxed(i).intValue
        put(bits, i.toLong * width, m, hashkeys(src))
        put(bits, i.toLong * width + m, idBits, src.toLong)
        i += 1
      }
    }
    new SortedKeyArray(bits, n, m)
  }
}
