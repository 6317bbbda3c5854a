package repro.baselines

import repro.kmeans.{KMeans, KMeansModel}
import repro.linalg.VecOps

/** Product quantization substrate (Jégou et al., paper ref. [11]) shared
  * by the PQ / OPQ / PCA-PQ / IVFPQ baselines.
  *
  * The input dimension is split into `m` contiguous segments; each segment
  * has its own 2^bits-centroid codebook trained by k-means on a sample. A
  * vector is encoded as `m` codebook indices; asymmetric distance
  * computation (ADC) scores encoded vectors against a query through
  * per-segment lookup tables.
  *
  * Each codebook is a [[KMeansModel]], so encoding and the squared-L2
  * tables run on its lane kernel and the inner-product tables on
  * [[VecOps.dots]]; both give a per-codeword `sqDist`/`dot` loop's bits.
  */
final class ProductQuantizer(val codebooks: Array[KMeansModel]) extends Serializable {
  val m: Int = codebooks.length
  val ksub: Int = codebooks(0).k
  val segDim: Int = codebooks(0).dim
  val dim: Int = m * segDim

  /** Nearest codebook entry per segment (squared L2, as in [11]); the first
    * on equal distances.
    */
  def encode(v: Array[Float]): Array[Byte] = {
    require(v.length == dim, s"dim mismatch ${v.length} vs $dim")
    val codes = new Array[Byte](m)
    val seg = new Array[Float](segDim)
    val acc = new Array[Double](ksub)
    var s = 0
    while (s < m) {
      codes(s) = codebooks(s).nearest(ProductQuantizer.segment(v, s, seg), acc).toByte
      s += 1
    }
    codes
  }

  /** Reconstruction from codes (used by OPQ's alternating optimization). */
  def decode(codes: Array[Byte]): Array[Float] = {
    val out = new Array[Float](dim)
    var s = 0
    while (s < m) {
      val cb = codebooks(s).centroids(codes(s) & 0xff)
      System.arraycopy(cb, 0, out, s * segDim, segDim)
      s += 1
    }
    out
  }

  /** Inner-product ADC tables: lut(s)(c) = q_s · codebook(s)(c). */
  def lutIP(q: Array[Float]): Array[Array[Float]] =
    tables(q)((s, seg, out) => VecOps.dots(seg, codebooks(s).centroids, ksub, out))

  /** Squared-L2 ADC tables: lut(s)(c) = ||q_s − codebook(s)(c)||². */
  def lutL2(q: Array[Float]): Array[Array[Float]] =
    tables(q)((s, seg, out) => codebooks(s).sqDists(seg, out))

  /** lut(s)(c) = the float of what `fill(s, q_s, out)` leaves in `out(c)`. */
  private def tables(q: Array[Float])(fill: (Int, Array[Float], Array[Double]) => Unit): Array[Array[Float]] = {
    val lut = Array.ofDim[Float](m, ksub)
    val seg = new Array[Float](segDim)
    val out = new Array[Double](ksub)
    var s = 0
    while (s < m) {
      fill(s, ProductQuantizer.segment(q, s, seg), out)
      var c = 0
      while (c < ksub) { lut(s)(c) = out(c).toFloat; c += 1 }
      s += 1
    }
    lut
  }

  /** ADC score of one encoded vector given precomputed tables. */
  def adc(lut: Array[Array[Float]], codes: Array[Byte], offset: Int): Double = {
    var s = 0; var acc = 0.0
    while (s < m) { acc += lut(s)(codes(offset + s) & 0xff); s += 1 }
    acc
  }

  /** Mean squared reconstruction error over a sample (tests + OPQ). */
  def reconstructionError(sample: Array[Array[Float]]): Double = {
    var s = 0.0
    sample.foreach(v => s += VecOps.sqDist(v, decode(encode(v))))
    s / sample.length
  }
}

object ProductQuantizer {

  /** Trains per-segment codebooks on (a sample of) the corpus.
    *
    * @param bits codebook size is 2^bits, capped at the sample size
    */
  def fit(
      sample: Array[Array[Float]],
      m: Int,
      bits: Int,
      iters: Int = 10,
      seed: Long = 23L): ProductQuantizer = {
    require(sample.nonEmpty)
    val dim = sample(0).length
    require(dim % m == 0, s"dim $dim not divisible by m=$m")
    val segDim = dim / m
    val ksub = math.min(1 << bits, sample.length)
    val codebooks = repro.linalg.Parallel.tabulate(m) { s =>
      KMeans.fit(sample.map(v => segment(v, s, new Array[Float](segDim))), ksub, iters, seed + s)
    }
    new ProductQuantizer(codebooks)
  }

  /** Copies segment `s` of `v`, `seg.length` wide, into `seg`; returns `seg`. */
  private def segment(v: Array[Float], s: Int, seg: Array[Float]): Array[Float] = {
    System.arraycopy(v, s * seg.length, seg, 0, seg.length)
    seg
  }
}
