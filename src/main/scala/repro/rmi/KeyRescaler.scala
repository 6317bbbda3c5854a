package repro.rmi

import repro.esklsh.SortedKeyArray

/** Key re-scaling module (paper §5.1).
  *
  * Step 1 — the binary hashkey is read as a decimal integer (our packed
  * `Long` representation *is* that integer, see [[repro.lsh.Hashkey]]).
  * Step 2 — min-max normalization (paper Eq. 8) maps it to a float in
  * `[0, L_array − 1]`, the same range as the location labels, which is
  * what keeps RMI predictions in range (evaluated in Table 4).
  *
  * The mapping is monotonic, so it preserves the sorted order of the keys.
  */
final case class KeyRescaler(min: Long, max: Long, arrayLen: Long) {

  /** Eq. 8 with a = 0, b = L_array − 1. Inputs outside [min, max]
    * (possible for query keys unseen at build time) extrapolate linearly
    * and are *not* clamped — clamping is the RMI's job at prediction time.
    */
  def rescale(key: Long): Double = {
    if (max == min) 0.0
    else (key - min).toDouble / (max - min).toDouble * (arrayLen - 1).toDouble
  }
}

object KeyRescaler {

  /** The re-scaler of a sorted array: its entries are ordered by (key, id),
    * so the key of entry 0 is the minimum and that of entry n − 1 the
    * maximum. Nothing about it needs storing beside the array.
    */
  def of(arr: SortedKeyArray): KeyRescaler = {
    require(arr.length > 0, "cannot re-scale the keys of an empty array")
    KeyRescaler(arr.keyOf(arr.entry(0)), arr.keyOf(arr.entry(arr.length - 1)), arr.length.toLong)
  }
}
