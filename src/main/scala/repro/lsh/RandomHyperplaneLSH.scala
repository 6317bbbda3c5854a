package repro.lsh

import repro.linalg.VecOps
import scala.util.Random

/** Hyperplane random-projection LSH (Charikar 2002) for cosine similarity —
  * the base LSH model of ESK-LSH (paper §4.1).
  *
  * `numKeys` compound hash functions G_h = (h_1 … h_m), each a sequence of
  * `keyLen` random hyperplanes; `h_i(v) = [v · r_i ≥ 0]`. The collision
  * probability of a single bit is `1 − θ/π` (paper Eq. 2), which the tests
  * verify statistically.
  *
  * `planes(h)(i)` is the i-th hyperplane of compound function h. Construct
  * via the companion: seeded (deterministic Gaussian directions, so index
  * build and query-time hashing agree) or from persisted planes (a plane-set
  * record of an index directory, which every in-cluster model of a loaded
  * index views through [[truncate]], as a built index's do).
  */
final class RandomHyperplaneLSH private[lsh] (
    val dim: Int,
    val numKeys: Int,
    val keyLen: Int,
    val planes: Array[Array[Array[Float]]])
    extends Serializable {
  require(keyLen <= Hashkey.MaxLen, s"keyLen $keyLen > ${Hashkey.MaxLen}")

  /** The packed hashkey of `v` under compound function `h`. */
  def hash(v: Array[Float], h: Int): Long = key(margins(v, h))

  /** The packed hashkey of one function's margins: bit i is
    * `margins(i) ≥ 0`, the first plane's bit most significant.
    */
  def key(margins: Array[Double]): Long = {
    var key = 0L
    var i = 0
    while (i < keyLen) {
      key = (key << 1) | (if (margins(i) >= 0.0) 1L else 0L)
      i += 1
    }
    key
  }

  /** All `numKeys` hashkeys of `v`. */
  def hashAll(v: Array[Float]): Array[Long] =
    Array.tabulate(numKeys)(h => hash(v, h))

  /** Signed margins v·r_i of `v` under function `h`, from
    * [[VecOps.dots]]: their signs are the hashkey's bits ([[key]]), and the
    * multi-probe LSH baseline ranks which bits to flip first by them.
    */
  def margins(v: Array[Float], h: Int): Array[Double] = {
    val out = new Array[Double](keyLen)
    VecOps.dots(v, planes(h), keyLen, out)
    out
  }

  /** True when every hyperplane of this set is, by value, the plane at the
    * same place in `longer`: same dimension and function count, and each
    * function's planes a prefix of `longer`'s. A key of this set is then
    * the leading `keyLen` bits of the key under `longer`.
    */
  def isPrefixOf(longer: RandomHyperplaneLSH): Boolean =
    dim == longer.dim && numKeys == longer.numKeys && keyLen <= longer.keyLen &&
      (0 until numKeys).forall { h =>
        (0 until keyLen).forall { i =>
          val p = planes(h)(i); val o = longer.planes(h)(i)
          (p eq o) || java.util.Arrays.equals(p, o)
        }
      }

  /** A view with the first `m` hyperplanes per compound function. The
    * per-bit plane vectors (the heavy arrays) are *shared*, which is how
    * LIDER keeps one hyperplane set across its ~1000 in-cluster
    * retrievers, built or loaded (per-cluster key lengths differ, plane
    * directions need not — they are data-independent random draws).
    */
  def truncate(m: Int): RandomHyperplaneLSH = {
    require(m <= keyLen, s"cannot truncate to $m > $keyLen")
    if (m == keyLen) this
    else new RandomHyperplaneLSH(dim, numKeys, m, planes.map(_.take(m)))
  }
}

object RandomHyperplaneLSH {

  /** Seeded construction: standard Gaussian hyperplane directions
    * (rotation-invariant), deterministic in `seed`.
    */
  def apply(dim: Int, numKeys: Int, keyLen: Int, seed: Long): RandomHyperplaneLSH = {
    val rnd = new Random(seed)
    val planes = Array.fill(numKeys, keyLen)(Array.fill(dim)(rnd.nextGaussian().toFloat))
    new RandomHyperplaneLSH(dim, numKeys, keyLen, planes)
  }

  /** Reconstruction from persisted hyperplanes (a plane-set record). */
  def fromPlanes(planes: Array[Array[Array[Float]]]): RandomHyperplaneLSH = {
    require(planes.nonEmpty && planes(0).nonEmpty && planes(0)(0).nonEmpty, "empty planes")
    new RandomHyperplaneLSH(planes(0)(0).length, planes.length, planes(0).length, planes)
  }
}
