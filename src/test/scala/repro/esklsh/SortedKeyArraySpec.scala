package repro.esklsh

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport

class SortedKeyArraySpec extends AnyFunSuite with PropertySupport {

  private val keysGen: Gen[Array[Long]] =
    Gen.choose(1, 200).flatMap(n => Gen.listOfN(n, Gen.choose(0L, 255L)).map(_.toArray))

  private def key(arr: SortedKeyArray, i: Int): Long = arr.keyOf(arr.entry(i))
  private def id(arr: SortedKeyArray, i: Int): Int = arr.idOf(arr.entry(i))
  private def ids(arr: SortedKeyArray): Seq[Int] = (0 until arr.length).map(id(arr, _))

  /** ceil(log2 n), at least 1: the id bits of an n-entry array. */
  private def idBits(n: Int): Int = if (n <= 1) 1 else 32 - Integer.numberOfLeadingZeros(n - 1)

  /** `m`-bit keys, n 1–80, a third of them repeats. An entry holds at most
    * 63 bits, so m goes up to 63 − idBits(n); half the draws sit in the
    * top six widths, where entries straddle word boundaries most.
    */
  private val shapeGen: Gen[(Int, Array[Long])] = for {
    n <- Gen.choose(1, 80)
    top = 63 - idBits(n)
    m <- Gen.oneOf(Gen.choose(2, top), Gen.choose(top - 5, top))
    ks <- Gen.listOfN(n, Gen.choose(0L, (1L << m) - 1))
    dups <- Gen.listOfN(n, Gen.choose(0, 2))
  } yield (m, ks.indices.map(i => if (dups(i) == 0 && i > 0) ks(i / 2) else ks(i)).toArray)

  test("keys come out ascending") {
    checkProp(Prop.forAll(keysGen) { ks =>
      val arr = SortedKeyArray.build(ks, 8)
      arr.keys.sliding(2).forall(p => p.length < 2 || p(0) <= p(1))
    })
  }

  test("ids permute the input exactly") {
    checkProp(Prop.forAll(keysGen) { ks =>
      val arr = SortedKeyArray.build(ks, 8)
      ids(arr).sorted == ks.indices
    })
  }

  test("each position's key matches the input key of its id") {
    checkProp(Prop.forAll(keysGen) { ks =>
      val arr = SortedKeyArray.build(ks, 8)
      arr.keys.indices.forall(i => arr.keys(i) == ks(id(arr, i)))
    })
  }

  test("equal keys keep ascending id order (deterministic ties)") {
    val arr = SortedKeyArray.build(Array(5L, 5L, 1L, 5L), 4)
    assert(arr.keys.toSeq == Seq(1L, 5L, 5L, 5L))
    assert(ids(arr) == Seq(2, 0, 1, 3))
  }

  test("insertionPoint returns the first position with key >= query") {
    val arr = SortedKeyArray.build(Array(2L, 4L, 4L, 9L), 4)
    assert(arr.insertionPoint(0L) == 0)
    assert(arr.insertionPoint(2L) == 0)
    assert(arr.insertionPoint(3L) == 1)
    assert(arr.insertionPoint(4L) == 1)
    assert(arr.insertionPoint(5L) == 3)
    assert(arr.insertionPoint(10L) == 4)
  }

  test("insertionPoint brackets the query key") {
    checkProp(Prop.forAll(for {
      ks <- keysGen
      q <- Gen.choose(0L, 255L)
    } yield (ks, q)) { case (ks, q) =>
      val arr = SortedKeyArray.build(ks, 8)
      val p = arr.insertionPoint(q)
      (p == 0 || arr.keys(p - 1) < q) && (p == arr.length || arr.keys(p) >= q)
    })
  }

  test("every position equals a sort of (key, id) pairs") {
    checkProp(Prop.forAll(shapeGen) { case (m, ks) =>
      val arr = SortedKeyArray.build(ks, m)
      val ref = ks.indices.map(i => (ks(i), i)).sorted
      arr.length == ks.length && arr.m == m &&
        ref.indices.forall(i => key(arr, i) == ref(i)._1 && id(arr, i) == ref(i)._2)
    }, minSuccessful = 300)
  }

  test("bit-packed storage round-trips keys exactly (including word-boundary splits)") {
    checkProp(Prop.forAll(shapeGen) { case (m, ks) =>
      val arr = SortedKeyArray.build(ks, m)
      val buf = new ByteArrayOutputStream()
      arr.write(new DataOutputStream(buf))
      val in = new DataInputStream(new ByteArrayInputStream(buf.toByteArray))
      val got = SortedKeyArray.read(in, ks.length, m)
      buf.size == arr.sizeBytes && in.available == 0 && got.length == arr.length && got.m == m &&
        got.sizeBytes == arr.sizeBytes &&
        (0 until arr.length).forall(i => got.entry(i) == arr.entry(i))
    }, minSuccessful = 300)
  }

  test("build and read reject entries over 63 bits, naming M and n") {
    // n = 100 takes 7 id bits, so M = 56 is the widest key.
    val ks = Array.tabulate(100)(_.toLong)
    val widest = SortedKeyArray.build(ks, 56)
    assert((0 until 100).forall(i => key(widest, i) == i && id(widest, i) == i))
    val message = "M = 57 does not fit n = 100"
    val eb = intercept[IllegalArgumentException](SortedKeyArray.build(ks, 57))
    assert(eb.getMessage.contains(message) && eb.getMessage.contains("[1, 56]"), eb.getMessage)
    val buf = new ByteArrayOutputStream()
    widest.write(new DataOutputStream(buf))
    val er = intercept[IllegalArgumentException](
      SortedKeyArray.read(new DataInputStream(new ByteArrayInputStream(buf.toByteArray)), 100, 57))
    assert(er.getMessage.contains(message), er.getMessage)
  }

  test("sizeBytes scales with the key length") {
    val ks = Array.tabulate(100)(_.toLong)
    val small = SortedKeyArray.build(ks, 8)
    val large = SortedKeyArray.build(ks, 32)
    assert(small.sizeBytes < large.sizeBytes)
    // Each entry is an m-bit key and a 7-bit id (100 entries), packed
    // across 8-byte words.
    assert(small.sizeBytes == (100 * (8 + 7) + 63) / 64 * 8)
    assert(large.sizeBytes == (100 * (32 + 7) + 63) / 64 * 8)
  }

  /** The ascending ids whose key is `k`: the reference for [[SortedKeyArray.idsWithKey]]. */
  private def idsWith(ks: Array[Long], k: Long): Seq[Int] = ks.indices.filter(ks(_) == k)

  /** Probes for `idsWithKey`: every key present, its neighbours (mostly
    * absent), and both extreme `m`-bit keys 0 and 2^m − 1.
    */
  private def probes(m: Int, ks: Array[Long]): Seq[Long] = {
    val top = (1L << m) - 1
    (ks ++ ks.map(k => (k + 1) & top) ++ ks.map(k => (k - 1) & top) :+ 0L :+ top).toSeq.distinct
  }

  test("idsWithKey equals the ascending ids whose key is k, present or absent") {
    checkProp(Prop.forAll(shapeGen) { case (m, ks) =>
      val arr = SortedKeyArray.build(ks, m)
      probes(m, ks).forall(k => arr.idsWithKey(k).toSeq == idsWith(ks, k))
    }, minSuccessful = 300)
  }

  test("idsWithKey over 1–4-bit keys, where the extremes are present and runs are long") {
    val dense: Gen[(Int, Array[Long])] = for {
      m <- Gen.choose(1, 4)
      n <- Gen.choose(1, 60)
      ks <- Gen.listOfN(n, Gen.choose(0L, (1L << m) - 1))
    } yield (m, ks.toArray)
    checkProp(Prop.forAll(dense) { case (m, ks) =>
      val arr = SortedKeyArray.build(ks, m)
      (0L until (1L << m)).forall(k => arr.idsWithKey(k).toSeq == idsWith(ks, k))
    }, minSuccessful = 300)
  }

  test("idsWithKey on a one-entry array finds only its key, at either extreme") {
    for (m <- Seq(1, 4, 62); k <- Seq(0L, (1L << m) - 1)) {
      val arr = SortedKeyArray.build(Array(k), m)
      for (q <- probes(m, Array(k)))
        assert(arr.idsWithKey(q).toSeq == (if (q == k) Seq(0) else Nil), s"m = $m, key $k, probe $q")
    }
  }

  test("single-element array works") {
    val arr = SortedKeyArray.build(Array(7L), 4)
    assert(arr.length == 1 && arr.insertionPoint(7L) == 0 && arr.insertionPoint(8L) == 1)
  }
}
