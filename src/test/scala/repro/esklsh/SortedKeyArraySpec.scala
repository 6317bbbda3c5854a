package repro.esklsh

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport

class SortedKeyArraySpec extends AnyFunSuite with PropertySupport {

  private val keysGen: Gen[Array[Long]] =
    Gen.choose(1, 200).flatMap(n => Gen.listOfN(n, Gen.choose(0L, 255L)).map(_.toArray))

  private def ids(arr: SortedKeyArray): Seq[Int] = (0 until arr.length).map(arr.id)

  /** `m`-bit keys, n 1–80, a third of them repeats; m ≥ 57 takes the boxed
    * path (m + idBits > 63) for the larger n.
    */
  private val shapeGen: Gen[(Int, Array[Long])] = for {
    m <- Gen.oneOf(Gen.choose(2, 62), Gen.choose(56, 62))
    n <- Gen.choose(1, 80)
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
      arr.keys.indices.forall(i => arr.keys(i) == ks(arr.id(i)))
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

  test("key and id at every position equal a sort of (key, id) pairs, on both sort paths") {
    checkProp(Prop.forAll(shapeGen) { case (m, ks) =>
      val arr = SortedKeyArray.build(ks, m)
      val ref = ks.indices.map(i => (ks(i), i)).sorted
      arr.length == ks.length && arr.m == m &&
        ref.indices.forall(i => arr.key(i) == ref(i)._1 && arr.id(i) == ref(i)._2)
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
        (0 until arr.length).forall(i => got.key(i) == arr.key(i) && got.id(i) == arr.id(i))
    }, minSuccessful = 300)
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

  test("single-element array works") {
    val arr = SortedKeyArray.build(Array(7L), 4)
    assert(arr.length == 1 && arr.insertionPoint(7L) == 0 && arr.insertionPoint(8L) == 1)
  }
}
