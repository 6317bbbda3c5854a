package repro.rmi

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SimplifiedRMISpec extends AnyFunSuite {

  test("perfectly linear keys are predicted exactly") {
    val keys = Array.tabulate(100)(i => i * 2.0)
    val rmi = SimplifiedRMI.fit(keys, width = 4)
    keys.indices.foreach(i => assert(rmi.predict(keys(i)) == i.toLong))
  }

  test("predictions are clamped to [0, n-1]") {
    val keys = Array.tabulate(50)(_.toDouble)
    val rmi = SimplifiedRMI.fit(keys, 2)
    assert(rmi.predict(-1e9) == 0L)
    assert(rmi.predict(1e9) == 49L)
  }

  test("predictRaw is unclamped") {
    val keys = Array.tabulate(50)(_.toDouble)
    val rmi = SimplifiedRMI.fit(keys, 2)
    assert(rmi.predictRaw(1e6) > 49.0)
    assert(rmi.predictRaw(-1e6) < 0.0)
  }

  test("piecewise-linear keys fit better with more width") {
    // Two regimes: slope 1 then slope 10.
    val keys = Array.tabulate(200)(i => if (i < 100) i.toDouble else 100.0 + (i - 100) * 10.0)
    def maxErr(width: Int): Long = {
      val rmi = SimplifiedRMI.fit(keys, width)
      keys.indices.map(i => math.abs(rmi.predict(keys(i)) - i)).max
    }
    assert(maxErr(8) <= maxErr(1))
  }

  test("error on noisy monotone keys is bounded within a reasonable band") {
    val rnd = new Random(5)
    var acc = 0.0
    val keys = Array.tabulate(500) { _ => acc += rnd.nextDouble(); acc }
    val rmi = SimplifiedRMI.fit(keys, 10)
    val maxErr = keys.indices.map(i => math.abs(rmi.predict(keys(i)) - i)).max
    assert(maxErr < 100, s"maxErr=$maxErr") // uniform increments ≈ linear
  }

  test("duplicate keys (paper §5.1) keep errors local") {
    // 10 groups of 10 identical keys: best possible error within a group is ≤ group size.
    val keys = Array.tabulate(100)(i => (i / 10).toDouble)
    val rmi = SimplifiedRMI.fit(keys, 4)
    val errs = keys.indices.map(i => math.abs(rmi.predict(keys(i)) - i))
    assert(errs.max <= 15, s"errs.max=${errs.max}")
  }

  test("width 1 degenerates to a single linear model") {
    val keys = Array.tabulate(30)(i => i * 3.0)
    val rmi = SimplifiedRMI.fit(keys, 1)
    assert(rmi.leaves.length == 1)
    keys.indices.foreach(i => assert(rmi.predict(keys(i)) == i.toLong))
  }

  test("unreached leaves inherit the root model") {
    // All keys identical → root predicts a constant → only one leaf reached.
    val keys = Array.fill(20)(5.0)
    val rmi = SimplifiedRMI.fit(keys, 4)
    assert(rmi.leaves.length == 4)
    val p = rmi.predict(5.0)
    assert(p >= 0 && p <= 19)
  }

  test("single key trains and predicts") {
    val rmi = SimplifiedRMI.fit(Array(42.0), 3)
    assert(rmi.predict(42.0) == 0L)
  }

  test("empty keys rejected") {
    intercept[IllegalArgumentException](SimplifiedRMI.fit(Array.empty[Double], 2))
  }

  test("width <= 0 is rejected, naming it, not clamped to 1") {
    for (width <- Seq(0, -1, Int.MinValue)) {
      val e = intercept[IllegalArgumentException](SimplifiedRMI.fit(Array(1.0, 2.0, 3.0), width))
      assert(e.getMessage.contains(s"width = $width"), e.getMessage)
    }
  }

  test("routing is stable: same key always reaches the same leaf") {
    val keys = Array.tabulate(100)(i => math.pow(i.toDouble, 1.3))
    val rmi = SimplifiedRMI.fit(keys, 5)
    keys.foreach(k => assert(rmi.predict(k) == rmi.predict(k)))
  }

  /** The fit that `SimplifiedRMI.fit` replaced, kept as the reference: it
    * routes each key inline and groups the leaves' points in `ArrayBuffer`s.
    */
  private def referenceFit(keys: Array[Double], width: Int, useSgd: Boolean): SimplifiedRMI = {
    val n = keys.length
    val positions = Array.tabulate(n)(_.toDouble)
    def train(xs: Array[Double], ys: Array[Double]): LinearModel =
      if (useSgd) LinearModel.fitSGD(xs, ys) else LinearModel.fit(xs, ys)
    val root = train(keys, positions)
    val buckets = Array.fill(width)(new scala.collection.mutable.ArrayBuffer[Int])
    for (i <- 0 until n) {
      val p = root.predict(keys(i))
      buckets(math.min(width - 1, math.max(0, math.floor(p * width / n.toDouble).toInt))) += i
    }
    val leaves = Array.tabulate(width) { j =>
      val idx = buckets(j)
      if (idx.isEmpty) root else train(idx.map(keys).toArray, idx.map(positions).toArray)
    }
    SimplifiedRMI(root, leaves, n.toLong)
  }

  test("fit's root and leaves keep the reference fit's bits") {
    def bits(m: LinearModel) = (java.lang.Double.doubleToRawLongBits(m.slope), java.lang.Double.doubleToRawLongBits(m.intercept))
    val rnd = new Random(9)
    var acc = 0.0
    val inputs = Seq(
      Array.tabulate(100)(i => i * 2.0),
      Array.tabulate(50)(_.toDouble),
      Array.tabulate(200)(i => if (i < 100) i.toDouble else 100.0 + (i - 100) * 10.0),
      Array.tabulate(500) { _ => acc += rnd.nextDouble(); acc },
      Array.tabulate(100)(i => (i / 10).toDouble),
      Array.tabulate(30)(i => i * 3.0),
      Array.fill(20)(5.0),
      Array(42.0),
      Array.tabulate(100)(i => math.pow(i.toDouble, 1.3)),
      Array.tabulate(300)(i => math.exp(i / 40.0)))
    for (keys <- inputs; width <- Seq(1, 2, 3, 4, 5, 8, 10, 64); sgd <- Seq(false, true)) {
      val got = SimplifiedRMI.fit(keys, width, useSgd = sgd)
      val want = referenceFit(keys, width, sgd)
      val clue = s"n = ${keys.length}, width = $width, sgd = $sgd"
      assert(bits(got.root) == bits(want.root), clue)
      assert(got.leaves.map(bits).toSeq == want.leaves.map(bits).toSeq, clue)
      assert(got.n == want.n, clue)
      keys.foreach(k => assert(got.predict(k) == want.predict(k), clue))
    }
  }
}
