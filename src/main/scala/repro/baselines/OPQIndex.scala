package repro.baselines

import repro.core.{AnnIndex, Scored}
import repro.kmeans.KMeans
import repro.linalg.{Eigen, Mat, Parallel}

/** OPQ baseline (paper §7.1.2 baseline 3, Ge et al. [8]): product
  * quantization after a learned orthogonal rotation. The rotation is
  * trained by the non-parametric alternating scheme —
  *
  *   repeat: (1) fit PQ codebooks on R·X; (2) with reconstructions
  *   Y = q(R·X), solve the orthogonal Procrustes problem
  *   min_R ||R·X − Y||_F, whose solution is R = V·Uᵀ for X·Yᵀ = U·Σ·Vᵀ
  *
  * — using this repo's Jacobi SVD. Search rotates the query and runs the
  * same ADC scan as [[PQIndex]] (rotation preserves inner products).
  */
final class OPQIndex(val rotation: Mat, inner: PQIndex) extends AnnIndex {

  override def name: String = "OPQ"

  override def search(q: Array[Float], k: Int): Array[Scored] =
    inner.search(rotation.applyTo(q), k)

  def pq: ProductQuantizer = inner.pq
}

object OPQIndex {
  def build(
      vectors: Array[Array[Float]],
      ids: Array[Long],
      m: Int,
      bits: Int,
      optIters: Int = 6,
      trainSample: Int = 8_000,
      seed: Long = 31L): OPQIndex = {
    val dim = vectors(0).length
    val sample = KMeans.sample(vectors, trainSample, seed)

    // Alternating optimization, tracking the best (rotation, codebooks)
    // pair by training reconstruction error. Iteration 0 uses the identity
    // rotation, so OPQ can never end up worse than plain PQ on the
    // training sample (the paper's OPQ ≥ PQ quality ordering).
    var r = Mat.eye(dim)
    var bestR = r
    var bestPq: ProductQuantizer = null
    var bestErr = Double.MaxValue
    var it = 0
    while (it < optIters) {
      val rotated = sample.map(r.applyTo)
      val pq = ProductQuantizer.fit(rotated, m, bits, iters = 8, seed = seed)
      val err = pq.reconstructionError(rotated)
      if (err < bestErr) { bestErr = err; bestR = r; bestPq = pq }
      // X·Yᵀ accumulated over the sample (d×d); Procrustes update R = V·Uᵀ.
      val a = Mat.zeros(dim, dim)
      var idx = 0
      while (idx < sample.length) {
        val x = sample(idx)
        val y = pq.decode(pq.encode(rotated(idx)))
        var i = 0
        while (i < dim) {
          val xi = x(i)
          if (xi != 0.0f) {
            var j = 0
            while (j < dim) { a(i, j) += xi.toDouble * y(j); j += 1 }
          }
          i += 1
        }
        idx += 1
      }
      val (u, _, v) = Eigen.svdSquare(a)
      r = v * u.t
      it += 1
    }

    val rotatedAll = Parallel.tabulate(vectors.length)(i => bestR.applyTo(vectors(i)))
    val codes = PQIndex.encodeAll(bestPq, rotatedAll)
    new OPQIndex(bestR, new PQIndex(bestPq, codes, ids))
  }
}
