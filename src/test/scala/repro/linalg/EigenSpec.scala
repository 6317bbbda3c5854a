package repro.linalg

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class EigenSpec extends AnyFunSuite {

  private def randomSymmetric(n: Int, seed: Long): Mat = {
    val rnd = new Random(seed)
    val m = Mat.zeros(n, n)
    for (i <- 0 until n; j <- i until n) {
      val v = rnd.nextGaussian()
      m(i, j) = v; m(j, i) = v
    }
    m
  }

  test("eigen of a diagonal matrix returns its entries sorted descending") {
    val m = Mat.fromRows(Array(Array(2.0, 0.0), Array(0.0, 5.0)))
    val (vals, _) = Eigen.symmetric(m)
    assert(math.abs(vals(0) - 5.0) < 1e-9 && math.abs(vals(1) - 2.0) < 1e-9)
  }

  test("eigen of a known 2x2 matrix") {
    // [[2,1],[1,2]] has eigenvalues 3 and 1.
    val m = Mat.fromRows(Array(Array(2.0, 1.0), Array(1.0, 2.0)))
    val (vals, vecs) = Eigen.symmetric(m)
    assert(math.abs(vals(0) - 3.0) < 1e-9 && math.abs(vals(1) - 1.0) < 1e-9)
    // Leading eigenvector is ±(1,1)/√2.
    assert(math.abs(math.abs(vecs(0, 0)) - math.sqrt(0.5)) < 1e-6)
    assert(math.abs(vecs(0, 0) - vecs(1, 0)) < 1e-6)
  }

  test("eigenvectors are orthonormal") {
    val m = randomSymmetric(8, 7)
    val (_, v) = Eigen.symmetric(m)
    val g = v.t * v
    assert(g.maxAbsDiff(Mat.eye(8)) < 1e-8)
  }

  test("A v = lambda v holds for every eigenpair") {
    val m = randomSymmetric(6, 13)
    val (vals, v) = Eigen.symmetric(m)
    for (j <- 0 until 6) {
      for (i <- 0 until 6) {
        var av = 0.0
        for (k <- 0 until 6) av += m(i, k) * v(k, j)
        assert(math.abs(av - vals(j) * v(i, j)) < 1e-7, s"eigenpair $j row $i")
      }
    }
  }

  test("trace equals sum of eigenvalues") {
    val m = randomSymmetric(10, 29)
    val (vals, _) = Eigen.symmetric(m)
    val trace = (0 until 10).map(i => m(i, i)).sum
    assert(math.abs(vals.sum - trace) < 1e-8)
  }

  test("svdSquare reconstructs the input") {
    val rnd = new Random(3)
    val a = Mat.fromRows(Array.fill(5)(Array.fill(5)(rnd.nextGaussian())))
    val (u, s, v) = Eigen.svdSquare(a)
    val sigma = Mat.zeros(5, 5)
    for (i <- 0 until 5) sigma(i, i) = s(i)
    assert((u * sigma * v.t).maxAbsDiff(a) < 1e-7)
  }

  test("svdSquare returns orthogonal U and V") {
    val rnd = new Random(5)
    val a = Mat.fromRows(Array.fill(6)(Array.fill(6)(rnd.nextGaussian())))
    val (u, _, v) = Eigen.svdSquare(a)
    assert((u.t * u).maxAbsDiff(Mat.eye(6)) < 1e-7)
    assert((v.t * v).maxAbsDiff(Mat.eye(6)) < 1e-7)
  }

  test("singular values are non-negative and descending") {
    val rnd = new Random(11)
    val a = Mat.fromRows(Array.fill(5)(Array.fill(5)(rnd.nextGaussian())))
    val (_, s, _) = Eigen.svdSquare(a)
    assert(s.forall(_ >= 0.0))
    assert(s.sliding(2).forall(p => p(0) >= p(1) - 1e-12))
  }

  test("svdSquare handles a rank-deficient matrix") {
    // Rank 1: outer product.
    val a = Mat.fromRows(Array(Array(1.0, 2.0), Array(2.0, 4.0)))
    val (u, s, v) = Eigen.svdSquare(a)
    assert(s(1) < 1e-8)
    val sigma = Mat.zeros(2, 2); sigma(0, 0) = s(0); sigma(1, 1) = s(1)
    assert((u * sigma * v.t).maxAbsDiff(a) < 1e-7)
    assert((u.t * u).maxAbsDiff(Mat.eye(2)) < 1e-7)
  }
}
