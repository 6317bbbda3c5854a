package repro.linalg

/** Cyclic Jacobi eigensolver for symmetric matrices, plus an SVD built on
  * top of it (via the eigendecomposition of AᵀA). Sizes here are small —
  * covariance / correlation matrices of embedding dimension d ≤ 768 — so
  * an O(d³·sweeps) Jacobi is plenty and keeps the repo dependency-free.
  */
object Eigen {

  /** Eigenvalues (descending) and matching orthonormal eigenvectors
    * (as columns of the returned matrix) of a symmetric matrix.
    */
  def symmetric(aIn: Mat, maxSweeps: Int = 64, tol: Double = 1e-12): (Array[Double], Mat) = {
    require(aIn.rows == aIn.cols, "symmetric eigen needs a square matrix")
    val n = aIn.rows
    val a = aIn.copy
    val v = Mat.eye(n)

    var sweep = 0
    var off = offDiagNorm(a)
    while (sweep < maxSweeps && off > tol) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p, q)
          if (math.abs(apq) > tol * 1e-3) rotate(a, v, p, q)
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(a)
      sweep += 1
    }

    val eigs = Array.tabulate(n)(i => (a(i, i), i)).sortBy(-_._1)
    val values = eigs.map(_._1)
    val vectors = Mat.zeros(n, n)
    var j = 0
    while (j < n) {
      val src = eigs(j)._2
      var i = 0
      while (i < n) { vectors(i, j) = v(i, src); i += 1 }
      j += 1
    }
    (values, vectors)
  }

  private def offDiagNorm(a: Mat): Double = {
    var s = 0.0; var i = 0
    while (i < a.rows) {
      var j = i + 1
      while (j < a.cols) { s += 2 * a(i, j) * a(i, j); j += 1 }
      i += 1
    }
    math.sqrt(s)
  }

  /** One Jacobi rotation zeroing a(p,q), accumulated into v. */
  private def rotate(a: Mat, v: Mat, p: Int, q: Int): Unit = {
    val n = a.rows
    val apq = a(p, q)
    if (apq == 0.0) return
    val theta = (a(q, q) - a(p, p)) / (2.0 * apq)
    val t =
      if (theta >= 0) 1.0 / (theta + math.sqrt(1.0 + theta * theta))
      else 1.0 / (theta - math.sqrt(1.0 + theta * theta))
    val c = 1.0 / math.sqrt(1.0 + t * t)
    val s = t * c

    var k = 0
    while (k < n) {
      val akp = a(k, p); val akq = a(k, q)
      a(k, p) = c * akp - s * akq
      a(k, q) = s * akp + c * akq
      k += 1
    }
    k = 0
    while (k < n) {
      val apk = a(p, k); val aqk = a(q, k)
      a(p, k) = c * apk - s * aqk
      a(q, k) = s * apk + c * aqk
      k += 1
    }
    k = 0
    while (k < n) {
      val vkp = v(k, p); val vkq = v(k, q)
      v(k, p) = c * vkp - s * vkq
      v(k, q) = s * vkp + c * vkq
      k += 1
    }
  }

  /** Thin SVD of a square matrix: A = U diag(σ) Vᵀ with σ descending.
    * Built from the symmetric eigendecomposition of AᵀA; columns of U for
    * (near-)zero singular values are completed via Gram–Schmidt so U stays
    * orthogonal — required by the Procrustes step in OPQ.
    */
  def svdSquare(a: Mat): (Mat, Array[Double], Mat) = {
    require(a.rows == a.cols, "svdSquare expects square input")
    val n = a.rows
    val (evals, vMat) = symmetric(a.t * a)
    val sigma = evals.map(e => math.sqrt(math.max(0.0, e)))
    val u = Mat.zeros(n, n)
    var j = 0
    while (j < n) {
      if (sigma(j) > 1e-10) {
        // u_j = A v_j / σ_j
        var i = 0
        while (i < n) {
          var s = 0.0; var k = 0
          while (k < n) { s += a(i, k) * vMat(k, j); k += 1 }
          u(i, j) = s / sigma(j)
          i += 1
        }
      } else {
        // Complete with any unit vector orthogonal to existing columns.
        val col = gramSchmidtFill(u, j, n)
        var i = 0
        while (i < n) { u(i, j) = col(i); i += 1 }
      }
      j += 1
    }
    (u, sigma, vMat)
  }

  private def gramSchmidtFill(u: Mat, upto: Int, n: Int): Array[Double] = {
    var attempt = 0
    while (attempt < n) {
      val cand = new Array[Double](n)
      cand(attempt) = 1.0
      var j = 0
      while (j < upto) {
        var proj = 0.0; var i = 0
        while (i < n) { proj += cand(i) * u(i, j); i += 1 }
        i = 0
        while (i < n) { cand(i) -= proj * u(i, j); i += 1 }
        j += 1
      }
      val nrm = math.sqrt(cand.map(x => x * x).sum)
      if (nrm > 1e-6) return cand.map(_ / nrm)
      attempt += 1
    }
    throw new IllegalStateException("could not complete orthogonal basis")
  }
}
