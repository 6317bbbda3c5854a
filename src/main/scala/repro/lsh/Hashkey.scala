package repro.lsh

/** Binary LSH hashkeys packed into a `Long`.
  *
  * A hashkey is the concatenation of `m ≤ 62` binary hash values
  * (hyperplane random projections — paper §4.1). We store the *first* hash
  * value at the most significant of the `m` used bits, so that
  *
  *   unsigned numeric order on the packed Long ≡ the SK-LSH linear order
  *   (element-wise comparison from most- to least-significant element,
  *   which for binary elements is lexicographic order — paper §4.2).
  *
  * That identity is what lets the sorted hashkey arrays be plain sorted
  * `Array[Long]`, with positions located by binary search or RMI prediction.
  */
object Hashkey {
  /** Maximum supported key length (bits of a Long minus sign headroom). */
  val MaxLen = 62

  /** Packs `bits(0..m-1)` (bits(0) most significant). */
  def pack(bits: Array[Int], m: Int): Long = {
    require(m <= MaxLen, s"hashkey length $m > $MaxLen")
    var key = 0L
    var i = 0
    while (i < m) { key = (key << 1) | (bits(i) & 1L); i += 1 }
    key
  }

  /** The i-th element (0-based from the most significant) of a length-m key. */
  def bitAt(key: Long, i: Int, m: Int): Int = ((key >>> (m - 1 - i)) & 1L).toInt

  /** Renders the key as a 0/1 string of length m (for debugging / tests). */
  def render(key: Long, m: Int): String = {
    val sb = new StringBuilder(m)
    var i = 0
    while (i < m) { sb.append(('0' + bitAt(key, i, m)).toChar); i += 1 }
    sb.toString
  }

  /** Length of the common prefix of two length-m keys. */
  def commonPrefixLen(k1: Long, k2: Long, m: Int): Int = {
    val x = k1 ^ k2
    if (x == 0L) m
    else {
      val highest = 63 - java.lang.Long.numberOfLeadingZeros(x) // bit pos from LSB
      m - 1 - highest
    }
  }

  /** Non-prefix length KL (paper [23] Eq. 4): m − common prefix length. */
  def kl(k1: Long, k2: Long, m: Int): Int = m - commonPrefixLen(k1, k2, m)

  /** Original SK-LSH element distance KD — for binary hash values it is
    * identically 1 whenever the keys differ (the "low resolution problem",
    * paper §4.2).
    */
  def kdOriginal(k1: Long, k2: Long): Int = if (k1 == k2) 0 else 1

  /** Extended element distance KD_e (paper Eq. 6): absolute difference of
    * the decimal values of the `b`-bit windows starting right after the
    * common prefix. Windows running past the end of the key are
    * zero-padded on the right so both windows stay `b` bits wide.
    */
  def kdExtended(k1: Long, k2: Long, m: Int, b: Int): Long = {
    if (k1 == k2) return 0L
    // Bits l … l+b−1 of the key sit at m−l−b … m−l−1 from the LSB; a
    // negative shift moves them up, leaving zeros past the key's end.
    val shift = m - commonPrefixLen(k1, k2, m) - b
    val mask = (1L << b) - 1
    math.abs(window(k1, shift, mask) - window(k2, shift, mask))
  }

  private def window(key: Long, shift: Int, mask: Long): Long =
    (if (shift >= 0) key >>> shift else key << -shift) & mask

  /** Original SK-LSH hashkey distance (paper Eq. 4) with C = 2 for binary
    * hash values (any C > max KD = 1 works; the value only needs to keep
    * the fractional part below 1).
    */
  def distOriginal(k1: Long, k2: Long, m: Int): Double =
    if (k1 == k2) 0.0 else kl(k1, k2, m) + kdOriginal(k1, k2) / 2.0

  /** Extended hashkey distance dist_e (paper Eq. 7) with C = 2^b. */
  def distExtended(k1: Long, k2: Long, m: Int, b: Int): Double =
    if (k1 == k2) 0.0
    else kl(k1, k2, m) + kdExtended(k1, k2, m, b).toDouble / (1L << b)
}
