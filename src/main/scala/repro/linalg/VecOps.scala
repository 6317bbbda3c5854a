package repro.linalg

/** Dense float-vector primitives shared by every index implementation.
  *
  * Embeddings are `Array[Float]` throughout the repo (half the memory of
  * doubles at the corpus sizes the benches use); accumulation is in double
  * for stability. All loops are plain `while` — these are the innermost
  * kernels of every ANN search.
  */
object VecOps {

  /** Dot product of two equal-length vectors. */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i).toDouble * b(i); i += 1 }
    s
  }

  /** Rejects a query whose length is not the index dimension `dim`. */
  def requireDim(q: Array[Float], dim: Int): Unit =
    require(q.length == dim, s"query has ${q.length} dimensions, the index has $dim")

  /** Euclidean (L2) norm. */
  def norm(a: Array[Float]): Double = math.sqrt(dot(a, a))

  /** Squared Euclidean distance. */
  def sqDist(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i).toDouble - b(i); s += d * d; i += 1 }
    s
  }

  /** Cosine similarity; 0 when either vector is zero. */
  def cosine(a: Array[Float], b: Array[Float]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  /** Returns a fresh unit-norm copy (zero vectors are returned as copies). */
  def normalized(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n == 0.0) a.clone()
    else {
      val out = new Array[Float](a.length)
      var i = 0
      while (i < a.length) { out(i) = (a(i) / n).toFloat; i += 1 }
      out
    }
  }

  /** In-place `acc += v`. */
  def addInPlace(acc: Array[Double], v: Array[Float]): Unit = {
    var i = 0
    while (i < v.length) { acc(i) += v(i); i += 1 }
  }

  /** `a - b` as a new float array. */
  def sub(a: Array[Float], b: Array[Float]): Array[Float] = {
    val out = new Array[Float](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) - b(i); i += 1 }
    out
  }

  /** Scales `acc` by `1/n` into a float vector (centroid finalization). */
  def mean(acc: Array[Double], n: Long): Array[Float] = {
    val out = new Array[Float](acc.length)
    var i = 0
    while (i < acc.length) { out(i) = (acc(i) / n).toFloat; i += 1 }
    out
  }

  /** Index of the maximum value; first occurrence wins. */
  def argmax(xs: Array[Double]): Int = {
    var best = 0; var i = 1
    while (i < xs.length) { if (xs(i) > xs(best)) best = i; i += 1 }
    best
  }

  /** Index of the minimum value; first occurrence wins. */
  def argmin(xs: Array[Double]): Int = {
    var best = 0; var i = 1
    while (i < xs.length) { if (xs(i) < xs(best)) best = i; i += 1 }
    best
  }
}
