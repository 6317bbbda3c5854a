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

  /** `out(i) = dot(a, rows(i))` for `i < n`, four rows per pass. Each row
    * keeps its own accumulator and sums in [[dot]]'s order, so every value
    * has [[dot]]'s bits; the four independent add chains overlap instead of
    * waiting on one another, and so do the four rows' cache misses.
    */
  def dots(a: Array[Float], rows: Array[Array[Float]], n: Int, out: Array[Double]): Unit = {
    var i = 0
    while (i + 4 <= n) {
      val b0 = rows(i); val b1 = rows(i + 1); val b2 = rows(i + 2); val b3 = rows(i + 3)
      var s0 = 0.0; var s1 = 0.0; var s2 = 0.0; var s3 = 0.0
      var j = 0
      while (j < a.length) {
        val x = a(j).toDouble
        s0 += x * b0(j); s1 += x * b1(j); s2 += x * b2(j); s3 += x * b3(j)
        j += 1
      }
      out(i) = s0; out(i + 1) = s1; out(i + 2) = s2; out(i + 3) = s3
      i += 4
    }
    while (i < n) { out(i) = dot(a, rows(i)); i += 1 }
  }

  /** Rejects a query whose length is not the index dimension `dim`, with a
    * `NaN` or infinite component (it would hash to arbitrary bits and score
    * `NaN` against every vector), or of all zeros (cosine is undefined).
    */
  def requireQuery(q: Array[Float], dim: Int): Unit = {
    require(q.length == dim, s"query has ${q.length} dimensions, the index has $dim")
    require(requireFinite(q, "query"), "query is the zero vector, for which cosine is undefined")
  }

  /** Rejects a corpus whose vector `i` differs in length from vector 0, or
    * has a `NaN` or infinite component (it would poison a centroid and hash
    * to arbitrary bits), naming `i`. Zero vectors pass.
    */
  def requireCorpus(vectors: Array[Array[Float]]): Unit = {
    val dim = if (vectors.isEmpty) 0 else vectors(0).length
    var i = 0
    while (i < vectors.length) {
      require(vectors(i).length == dim, s"corpus vector $i has ${vectors(i).length} dimensions, vector 0 has $dim")
      requireFinite(vectors(i), s"corpus vector $i")
      i += 1
    }
  }

  /** Throws an `IllegalArgumentException` naming `what` and the component
    * if `v` has a `NaN` or infinite one; returns whether any is non-zero.
    */
  private def requireFinite(v: Array[Float], what: => String): Boolean = {
    var nonZero = false
    var i = 0
    while (i < v.length) {
      if (!java.lang.Float.isFinite(v(i))) throw new IllegalArgumentException(s"$what component $i is ${v(i)}")
      nonZero |= v(i) != 0f
      i += 1
    }
    nonZero
  }

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
}
