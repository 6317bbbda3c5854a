package repro.kmeans

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.linalg.VecOps
import scala.util.Random

class KMeansSpec extends AnyFunSuite with PropertySupport {

  /** Three well-separated blobs in 2D. */
  private def blobs(perBlob: Int, seed: Long): (Array[Array[Float]], Array[Int]) = {
    val centers = Array(Array(0f, 0f), Array(10f, 0f), Array(0f, 10f))
    val rnd = new Random(seed)
    val data = new Array[Array[Float]](perBlob * 3)
    val truth = new Array[Int](perBlob * 3)
    for (b <- 0 until 3; i <- 0 until perBlob) {
      val idx = b * perBlob + i
      data(idx) = Array(
        centers(b)(0) + rnd.nextGaussian().toFloat * 0.5f,
        centers(b)(1) + rnd.nextGaussian().toFloat * 0.5f)
      truth(idx) = b
    }
    (data, truth)
  }

  test("recovers well-separated blobs") {
    val (data, truth) = blobs(100, 1)
    val model = KMeans.fit(data, 3, seed = 5)
    val assign = KMeans.assign(model, data)
    // Every true blob must map to exactly one predicted cluster.
    val mapping = (0 until 3).map { b =>
      val members = truth.indices.filter(truth(_) == b).map(assign)
      members.groupBy(identity).maxBy(_._2.size)._1
    }
    assert(mapping.distinct.size == 3, s"blob→cluster mapping collided: $mapping")
    val purity = truth.indices.count(i => assign(i) == mapping(truth(i))).toDouble / truth.length
    assert(purity > 0.98, s"purity $purity")
  }

  test("centroids land near the true blob centers") {
    val (data, _) = blobs(200, 2)
    val model = KMeans.fit(data, 3, seed = 6)
    val trueCenters = Array(Array(0f, 0f), Array(10f, 0f), Array(0f, 10f))
    trueCenters.foreach { tc =>
      val nearest = model.centroids.map(c => VecOps.sqDist(c, tc)).min
      assert(nearest < 0.5, s"no centroid near ${tc.toSeq}")
    }
  }

  test("k capped at data size") {
    val data = Array(Array(1f, 1f), Array(2f, 2f))
    val model = KMeans.fit(data, 10)
    assert(model.k <= 2)
  }

  test("nearest returns the closest centroid") {
    val model = KMeansModel(Array(Array(0f, 0f), Array(10f, 10f)))
    assert(model.nearest(Array(1f, 1f)) == 0)
    assert(model.nearest(Array(9f, 9f)) == 1)
  }

  test("nearestN orders centroids by distance") {
    val model = KMeansModel(Array(Array(0f, 0f), Array(5f, 0f), Array(10f, 0f)))
    assert(model.nearestN(Array(6f, 0f), 3).toSeq == Seq(1, 2, 0))
  }

  test("nearestN caps at k centroids") {
    val model = KMeansModel(Array(Array(0f, 0f), Array(5f, 0f)))
    assert(model.nearestN(Array(1f, 1f), 10).length == 2)
  }

  test("assign agrees with nearest for every point") {
    val (data, _) = blobs(50, 3)
    val model = KMeans.fit(data, 3, seed = 7)
    val assign = KMeans.assign(model, data)
    data.indices.foreach(i => assert(assign(i) == model.nearest(data(i))))
  }

  test("fit is deterministic in the seed") {
    val (data, _) = blobs(80, 4)
    val a = KMeans.fit(data, 3, seed = 9).centroids
    val b = KMeans.fit(data, 3, seed = 9).centroids
    assert(a.zip(b).forall { case (x, y) => x.sameElements(y) })
  }

  test("lloyd iterations do not increase inertia") {
    val (data, _) = blobs(100, 5)
    def inertia(model: KMeansModel): Double =
      data.map(v => VecOps.sqDist(v, model.centroids(model.nearest(v)))).sum
    val short = KMeans.fit(data, 3, maxIters = 1, seed = 11)
    val long = KMeans.fit(data, 3, maxIters = 15, seed = 11)
    assert(inertia(long) <= inertia(short) + 1e-6)
  }

  test("sample bounds the returned size and keeps originals intact") {
    val (data, _) = blobs(100, 6)
    val s = KMeans.sample(data, 50, 1)
    assert(s.length == 50)
    assert(KMeans.sample(data, 1000, 1).length == data.length)
  }

  test("empty input is rejected") {
    intercept[IllegalArgumentException](KMeans.fit(Array.empty[Array[Float]], 3))
  }

  test("fit rejects k <= 0") {
    val data = Array(Array(1f, 1f), Array(2f, 2f))
    intercept[IllegalArgumentException](KMeans.fit(data, 0))
    intercept[IllegalArgumentException](KMeans.fit(data, -3))
  }

  test("fit rejects vectors of differing lengths") {
    intercept[IllegalArgumentException](KMeans.fit(Array(Array(1f, 1f), Array(2f)), 1))
    intercept[IllegalArgumentException](KMeans.fit(Array(Array(1f, 1f), Array(2f, 2f, 2f)), 2))
  }

  test("assign rejects an empty model and vectors of the wrong length") {
    val model = KMeansModel(Array(Array(0f, 0f), Array(5f, 0f)))
    intercept[IllegalArgumentException](KMeans.assign(KMeansModel(Array.empty), Array(Array(1f, 1f))))
    intercept[IllegalArgumentException](KMeans.assign(model, Array(Array(1f, 1f), Array(1f))))
    intercept[IllegalArgumentException](KMeans.assign(model, Array(Array(1f, 1f, 1f))))
    intercept[IllegalArgumentException](KMeans.assign(KMeansModel(Array(Array(0f, 0f), Array(1f))), Array(Array(1f, 1f))))
    intercept[IllegalArgumentException](model.nearest(Array(1f)))
    intercept[IllegalArgumentException](model.nearestN(Array(1f, 1f, 1f), 1))
  }

  // --- bit-identity with the sqDist-per-pair loops the kernels replaced ---

  /** The `VecOps.sqDist`-per-pair seeding, Lloyd and assignment loops that
    * `KMeans` ran before its lane-per-pair kernels, run serially.
    */
  private object Reference {
    def nearest(cs: Array[Array[Float]], v: Array[Float]): Int = {
      var best = 0; var bestD = Double.MaxValue
      var c = 0
      while (c < cs.length) {
        val d = VecOps.sqDist(v, cs(c))
        if (d < bestD) { bestD = d; best = c }
        c += 1
      }
      best
    }

    def nearestN(cs: Array[Array[Float]], v: Array[Float], n: Int): Array[Int] = {
      val ds = Array.tabulate(cs.length)(c => (VecOps.sqDist(v, cs(c)), c))
      ds.sortBy(_._1).take(math.min(n, cs.length)).map(_._2)
    }

    def seedPlusPlus(data: Array[Array[Float]], k: Int, seed: Long): Array[Array[Float]] = {
      val rnd = new Random(seed)
      val out = new Array[Array[Float]](k)
      out(0) = data(rnd.nextInt(data.length)).clone()
      val minD = Array.fill(data.length)(Double.MaxValue)
      var c = 1
      while (c < k) {
        val prev = out(c - 1)
        data.indices.foreach { i =>
          val d = VecOps.sqDist(data(i), prev)
          if (d < minD(i)) minD(i) = d
        }
        val total = minD.sum
        out(c) =
          if (total <= 0.0) data(rnd.nextInt(data.length)).clone()
          else {
            var target = rnd.nextDouble() * total
            var i = 0
            while (i < data.length - 1 && target > minD(i)) { target -= minD(i); i += 1 }
            data(i).clone()
          }
        c += 1
      }
      out
    }

    /** The fitted centroids and the number of empty clusters re-seeded. */
    def fit(data: Array[Array[Float]], k: Int, maxIters: Int, seed: Long): (Array[Array[Float]], Int) = {
      val kk = math.min(k, data.length)
      val dim = data(0).length
      var centroids = seedPlusPlus(data, kk, seed)
      var reseeded = 0
      val assign = new Array[Int](data.length)
      var iter = 0
      var changed = true
      while (iter < maxIters && changed) {
        val cs = centroids
        val newAssign = data.map(nearest(cs, _))
        changed = !java.util.Arrays.equals(newAssign, assign)
        System.arraycopy(newAssign, 0, assign, 0, assign.length)
        val sums = Array.fill(kk)(new Array[Double](dim))
        val counts = new Array[Long](kk)
        data.indices.foreach { i => VecOps.addInPlace(sums(assign(i)), data(i)); counts(assign(i)) += 1 }
        val rnd = new Random(seed + iter)
        centroids = Array.tabulate(kk) { c =>
          if (counts(c) == 0) { reseeded += 1; data(rnd.nextInt(data.length)).clone() }
          else VecOps.mean(sums(c), counts(c))
        }
        iter += 1
      }
      (centroids, reseeded)
    }
  }

  /** `n` points of `dim` coordinates: on a coarse integer grid (many equal
    * distances) or Gaussian, with about a third copies of earlier points.
    */
  private def points(n: Int, dim: Int, grid: Boolean, seed: Long): Array[Array[Float]] = {
    val rnd = new Random(seed)
    val out = new Array[Array[Float]](n)
    for (i <- 0 until n) {
      out(i) =
        if (i > 0 && rnd.nextInt(3) == 0) out(rnd.nextInt(i)).clone()
        else Array.fill(dim)(if (grid) (rnd.nextInt(5) - 2).toFloat else rnd.nextGaussian().toFloat)
    }
    out
  }

  private def bits(cs: Array[Array[Float]]): Seq[Seq[Int]] =
    cs.toSeq.map(_.toSeq.map(java.lang.Float.floatToRawIntBits))

  /** Asserts fit, assign, nearest and nearestN all equal the reference. */
  private def sameAsReference(data: Array[Array[Float]], k: Int, maxIters: Int, seed: Long): Boolean = {
    val model = KMeans.fit(data, k, maxIters, seed)
    val (refCentroids, _) = Reference.fit(data, k, maxIters, seed)
    assert(bits(model.centroids) == bits(refCentroids), s"centroids differ (k=$k, seed=$seed)")
    val cs = model.centroids
    assert(KMeans.assign(model, data).toSeq == data.toSeq.map(Reference.nearest(cs, _)))
    val queries = data ++ points(20, data(0).length, grid = true, seed + 1)
    val scratch = new Array[Double](cs.length) // reused across queries, as PQ's encode does
    val d = new Array[Double](cs.length)
    queries.foreach { q =>
      assert(model.nearest(q) == Reference.nearest(cs, q))
      assert(model.nearest(q, scratch) == Reference.nearest(cs, q))
      model.sqDists(q, d)
      assert(d.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
        cs.toSeq.map(c => java.lang.Double.doubleToRawLongBits(VecOps.sqDist(q, c))))
      Seq(1, 3, cs.length + 2).foreach { n =>
        assert(model.nearestN(q, n).toSeq == Reference.nearestN(cs, q, n).toSeq)
      }
    }
    true
  }

  test("the lane kernel gives sqDist's bits, with either side as the lanes") {
    val rnd = new Random(8)
    val vs = Array.fill(37)(Array.fill(13)(rnd.nextGaussian().toFloat * 3))
    val table = new LaneTable(vs)
    val acc = Array.fill(vs.length)(-1.0)
    vs.foreach { q =>
      table.sqDists(q, acc, 5, 30)
      (0 until vs.length).foreach { i =>
        val expected = if (i >= 5 && i < 30) VecOps.sqDist(vs(i), q) else -1.0
        assert(java.lang.Double.doubleToRawLongBits(acc(i)) == java.lang.Double.doubleToRawLongBits(expected))
        assert(VecOps.sqDist(vs(i), q) == VecOps.sqDist(q, vs(i)))
      }
    }
  }

  test("kernels give bit-identical centroids, assignments and nearestN order") {
    val gen = for {
      seed <- Gen.choose(0L, 1000L)
      n <- Gen.choose(1, 80)
      dim <- Gen.choose(1, 6)
      k <- Gen.choose(1, n + 3) // k > n is capped
      grid <- Gen.oneOf(true, false)
      iters <- Gen.choose(1, 8)
    } yield (seed, n, dim, k, grid, iters)
    checkProp(Prop.forAllNoShrink(gen) { case (seed, n, dim, k, grid, iters) =>
      sameAsReference(points(n, dim, grid, seed), k, iters, seed)
    })
  }

  test("kernels are bit-identical across many parallel blocks") {
    sameAsReference(points(5000, 8, grid = false, 3), 40, 6, 3)
    sameAsReference(points(3000, 2, grid = true, 4), 25, 6, 4)
  }

  test("kernels are bit-identical when k = 1 and when every point is the same") {
    sameAsReference(points(50, 4, grid = false, 5), 1, 5, 5)
    sameAsReference(Array.fill(30)(Array(1f, -2f, 0.5f)), 4, 5, 6)
  }

  test("kernels are bit-identical through an iteration that re-seeds an empty cluster") {
    // Two groups of duplicates: seeding picks both, then only exact copies
    // (total weight 0), so two centroids coincide and the later one is empty.
    val data = Array.fill(6)(Array(0f, 0f)) ++ Array.fill(6)(Array(3f, 4f))
    val (_, reseeded) = Reference.fit(data, 4, 5, 7)
    assert(reseeded > 0)
    sameAsReference(data, 4, 5, 7)
  }
}
