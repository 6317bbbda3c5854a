package repro.rmi

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.esklsh.SortedKeyArray

class KeyRescalerSpec extends AnyFunSuite with PropertySupport {

  /** Key sets of 1–100 keys below 2^40, a third of them all one key. */
  private val keysGen: Gen[Array[Long]] = Gen.choose(1, 100).flatMap { n =>
    val key = Gen.choose(0L, 1L << 40)
    Gen.frequency(2 -> Gen.listOfN(n, key).map(_.toArray), 1 -> key.map(Array.fill(n)(_)))
  }

  /** The re-scaler derived from the sorted array of `keys`. */
  private def derived(keys: Array[Long]): KeyRescaler = KeyRescaler.of(SortedKeyArray.build(keys, 41))

  /** The reference: a min/max scan of the keys, in any order. */
  private def scanned(keys: Array[Long]): KeyRescaler = {
    var mn = keys(0); var mx = keys(0)
    for (k <- keys) { if (k < mn) mn = k; if (k > mx) mx = k }
    KeyRescaler(mn, mx, keys.length.toLong)
  }

  test("min maps to 0 and max maps to L-1 (paper Eq. 8 with a=0, b=L-1)") {
    val r = derived(Array(100L, 10L, 20L))
    assert(r.rescale(10L) == 0.0)
    assert(r.rescale(100L) == 2.0)
  }

  test("fit finds the true min and max") {
    checkProp(Prop.forAll(keysGen)(ks => derived(ks) == scanned(ks)))
  }

  test("rescaled training keys stay within [0, L-1]") {
    checkProp(Prop.forAll(keysGen) { ks =>
      val r = derived(ks)
      ks.forall { k =>
        val x = r.rescale(k)
        x >= 0.0 && x <= (ks.length - 1).toDouble + 1e-9
      }
    })
  }

  test("rescaling is monotone (preserves sorted order)") {
    checkProp(Prop.forAll(keysGen) { ks =>
      val r = derived(ks)
      val sorted = ks.sorted
      sorted.sliding(2).forall(p => p.length < 2 || r.rescale(p(0)) <= r.rescale(p(1)))
    })
  }

  test("rescaling is linear in the key") {
    val r = KeyRescaler(min = 0L, max = 1000L, arrayLen = 101)
    assert(r.rescale(500L) == 50.0)
    assert(r.rescale(250L) == 25.0)
  }

  test("query keys outside [min,max] extrapolate without clamping") {
    val r = KeyRescaler(min = 100L, max = 200L, arrayLen = 11)
    assert(r.rescale(300L) == 20.0)
    assert(r.rescale(0L) == -10.0)
  }

  test("all-identical keys map to 0 (degenerate range)") {
    val r = derived(Array(7L, 7L, 7L))
    assert(r.rescale(7L) == 0.0)
    assert(r.rescale(1234L) == 0.0)
  }

  test("an empty array is rejected") {
    intercept[IllegalArgumentException](derived(Array.empty[Long]))
  }
}
