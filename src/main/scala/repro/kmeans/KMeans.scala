package repro.kmeans

import repro.linalg.{Parallel, VecOps}
import scala.util.Random

/** Lloyd's k-means with k-means++ seeding, written from scratch.
  *
  * This is the clustering substrate used by
  *  - LIDER Stage 1 (partition the corpus into `c` clusters, paper §3.2),
  *  - the PQ family (per-segment codebooks: encoding, and the squared-L2
  *    query tables, run on the same kernel),
  *  - IVFPQ's coarse quantizer.
  *
  * Training runs on a bounded sample (like FAISS' default practice, which
  * the paper's baselines inherit); assignment of the full corpus is a single
  * parallel pass via [[KMeans.assign]].
  *
  * Every distance loop is a lane-per-pair kernel: one side of the pairs is
  * transposed into a table of doubles with one `Array[Double]` per
  * coordinate, and each lane (a centroid, or in seeding a sample point) has
  * its own accumulator. The inner loop runs across lanes with no float
  * conversion, so C2 vectorises it. Each lane still sums `(x_j − c_j)²` from
  * `j = 0` up, as [[VecOps.sqDist]] does, and a float → double conversion is
  * exact, so every distance, hence every argmin, draw and centroid, is
  * bit-identical to a `sqDist`-per-pair loop.
  */
final case class KMeansModel(centroids: Array[Array[Float]]) {
  def k: Int = centroids.length
  def dim: Int = centroids(0).length

  /** Built on the first query call, for a query path such as IVFPQ's or
    * PQ's. [[KMeans.assign]] builds its own, so a model that is only built
    * and assigned (LIDER's) never holds one.
    */
  @transient private lazy val table = new LaneTable(centroids)

  /** `out(c)` := squared Euclidean distance from `v` to centroid `c`, for
    * every `c < k`, with [[VecOps.sqDist]]'s bits.
    */
  def sqDists(v: Array[Float], out: Array[Double]): Unit = table.sqDists(v, out, 0, k)

  /** Index of the nearest centroid by squared Euclidean distance; the first
    * one on equal distances.
    */
  def nearest(v: Array[Float]): Int = nearest(v, new Array[Double](k))

  /** [[nearest]] with `acc`, `k` doubles, as scratch. */
  def nearest(v: Array[Float], acc: Array[Double]): Int = table.nearest(v, acc)

  /** Indices of the `n` nearest centroids, closest first; lower index first
    * on equal distances.
    */
  def nearestN(v: Array[Float], n: Int): Array[Int] = {
    val d = new Array[Double](k)
    sqDists(v, d)
    Array.range(0, k).sortBy(d(_))(Ordering.Double.TotalOrdering).take(n)
  }
}

/** Vectors as a table of doubles with one `Array[Double]` per coordinate;
  * each vector is a lane (see [[KMeansModel]]). Lanes are the centroids in
  * assignment and the sample points in seeding.
  */
private[kmeans] final class LaneTable(vs: Array[Array[Float]]) {
  require(vs.nonEmpty, "k-means needs k > 0 centroids")
  val lanes: Int = vs.length
  val dim: Int = vs(0).length
  KMeans.requireDim(vs, dim)
  private val rows = Array.ofDim[Double](dim, lanes)
  for (i <- 0 until lanes; j <- 0 until dim) rows(j)(i) = vs(i)(j)

  /** `acc(c)` := squared distance from `v` to lane `c`, for `c` in [lo, hi).
    * `(v_j − x_j)²` has the bits of `(x_j − v_j)²`, so either side may be
    * the lanes.
    */
  def sqDists(v: Array[Float], acc: Array[Double], lo: Int, hi: Int): Unit = {
    require(v.length == dim, s"vector has ${v.length} dimensions, the table has $dim")
    java.util.Arrays.fill(acc, lo, hi, 0.0)
    var j = 0
    while (j < dim) {
      val row = rows(j); val x = v(j).toDouble
      var c = lo
      while (c < hi) { val d = x - row(c); acc(c) += d * d; c += 1 }
      j += 1
    }
  }

  /** Nearest lane of `v`, strict `<` so the first index wins ties; `acc` is
    * `lanes` doubles of scratch.
    */
  def nearest(v: Array[Float], acc: Array[Double]): Int = {
    sqDists(v, acc, 0, lanes)
    var best = 0; var bestD = Double.MaxValue
    var c = 0
    while (c < lanes) {
      if (acc(c) < bestD) { bestD = acc(c); best = c }
      c += 1
    }
    best
  }

  /** Nearest lane of every vector, in parallel blocks that each own their
    * scratch.
    */
  def nearestAll(data: Array[Array[Float]]): Array[Int] = {
    val out = new Array[Int](data.length)
    Parallel.foreachBlock(data.length, KMeans.AssignBlock) { (lo, hi) =>
      val acc = new Array[Double](lanes)
      var i = lo
      while (i < hi) { out(i) = nearest(data(i), acc); i += 1 }
    }
    out
  }
}

object KMeans {

  /** Points per parallel block of an assignment pass. */
  private[kmeans] val AssignBlock = 256
  /** Sample points per parallel block of a seeding draw; its slice of the
    * accumulator (16 KB) stays in L1 while the block walks the coordinates.
    */
  private val SeedBlock = 2048

  /** Fits `k` centroids on `data` (typically a sample of the corpus).
    *
    * @param k        requested number of centroids, > 0; silently capped at
    *                 `data.length` (a cluster cannot be emptier than 1 seed)
    * @param maxIters Lloyd's iterations; stops early when assignments settle
    * @throws IllegalArgumentException on empty data, `k ≤ 0` or vectors of
    *                 differing lengths
    */
  def fit(data: Array[Array[Float]], k: Int, maxIters: Int = 15, seed: Long = 42L): KMeansModel = {
    require(data.nonEmpty, "k-means needs data")
    require(k > 0, s"k must be positive, got $k")
    val dim = data(0).length
    val kk = math.min(k, data.length)
    var centroids = seedPlusPlus(data, kk, seed)

    val assign = new Array[Int](data.length)
    var iter = 0
    var changed = true
    while (iter < maxIters && changed) {
      val newAssign = new LaneTable(centroids).nearestAll(data)
      changed = !java.util.Arrays.equals(newAssign, assign)
      System.arraycopy(newAssign, 0, assign, 0, assign.length)

      val sums = Array.fill(kk)(new Array[Double](dim))
      val counts = new Array[Long](kk)
      var i = 0
      while (i < data.length) {
        val c = assign(i)
        VecOps.addInPlace(sums(c), data(i))
        counts(c) += 1
        i += 1
      }
      val rnd = new Random(seed + iter)
      centroids = Array.tabulate(kk) { c =>
        if (counts(c) == 0) data(rnd.nextInt(data.length)).clone() // re-seed empty cluster
        else VecOps.mean(sums(c), counts(c))
      }
      iter += 1
    }
    KMeansModel(centroids)
  }

  /** k-means++ seeding (squared-distance-weighted draws). Lanes are the
    * sample points: each draw walks one table built once per call.
    */
  private def seedPlusPlus(data: Array[Array[Float]], k: Int, seed: Long): Array[Array[Float]] = {
    val n = data.length
    val table = new LaneTable(data)
    val rnd = new Random(seed)
    val out = new Array[Array[Float]](k)
    out(0) = data(rnd.nextInt(n)).clone()
    val minD = Array.fill(n)(Double.MaxValue)
    val acc = new Array[Double](n) // each block owns its slice
    var c = 1
    while (c < k) {
      val prev = out(c - 1)
      Parallel.foreachBlock(n, SeedBlock) { (lo, hi) =>
        table.sqDists(prev, acc, lo, hi)
        var i = lo
        while (i < hi) { if (acc(i) < minD(i)) minD(i) = acc(i); i += 1 }
      }
      var total = 0.0
      var i = 0
      while (i < n) { total += minD(i); i += 1 }
      out(c) =
        if (total <= 0.0) data(rnd.nextInt(n)).clone()
        else {
          var target = rnd.nextDouble() * total
          i = 0
          while (i < n - 1 && target > minD(i)) { target -= minD(i); i += 1 }
          data(i).clone()
        }
      c += 1
    }
    out
  }

  /** Parallel nearest-centroid assignment of the full corpus. Builds its own
    * centroid table, so `model` is left without one.
    */
  def assign(model: KMeansModel, data: Array[Array[Float]]): Array[Int] = {
    val table = new LaneTable(model.centroids)
    requireDim(data, table.dim)
    table.nearestAll(data)
  }

  /** Uniform sample without replacement (bounded by `maxSample`). */
  def sample(data: Array[Array[Float]], maxSample: Int, seed: Long): Array[Array[Float]] = {
    if (data.length <= maxSample) data
    else {
      val rnd = new Random(seed)
      val idx = rnd.shuffle((0 until data.length).toVector).take(maxSample)
      idx.map(data).toArray
    }
  }

  /** Rejects, with an `IllegalArgumentException`, any vector of `vs` whose
    * length is not `dim`.
    */
  private[kmeans] def requireDim(vs: Array[Array[Float]], dim: Int): Unit = {
    var i = 0
    while (i < vs.length) {
      require(vs(i).length == dim, s"vector $i has ${vs(i).length} dimensions, expected $dim")
      i += 1
    }
  }
}
