package repro.lsh

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.linalg.VecOps
import scala.util.Random

class RandomHyperplaneLSHSpec extends AnyFunSuite with PropertySupport {

  private def unit(dim: Int, rnd: Random): Array[Float] =
    VecOps.normalized(Array.fill(dim)(rnd.nextGaussian().toFloat))

  /** A unit vector at angle `theta` from `a` (in the plane spanned with a
    * random helper direction).
    */
  private def atAngle(a: Array[Float], theta: Double, rnd: Random): Array[Float] = {
    val helper = unit(a.length, rnd)
    val proj = VecOps.dot(helper, a)
    val orth = VecOps.normalized(Array.tabulate(a.length)(i => (helper(i) - proj * a(i)).toFloat))
    Array.tabulate(a.length)(i => (math.cos(theta) * a(i) + math.sin(theta) * orth(i)).toFloat)
  }

  test("hashing is deterministic in the seed") {
    val l1 = RandomHyperplaneLSH(16, 4, 10, seed = 3)
    val l2 = RandomHyperplaneLSH(16, 4, 10, seed = 3)
    val v = unit(16, new Random(1))
    assert(l1.hashAll(v).toSeq == l2.hashAll(v).toSeq)
  }

  test("different seeds give different hyperplanes") {
    val l1 = RandomHyperplaneLSH(16, 4, 10, seed = 3)
    val l2 = RandomHyperplaneLSH(16, 4, 10, seed = 4)
    val v = unit(16, new Random(1))
    assert(l1.hashAll(v).toSeq != l2.hashAll(v).toSeq)
  }

  test("a vector collides with itself on every bit") {
    val l = RandomHyperplaneLSH(16, 8, 12, seed = 5)
    val v = unit(16, new Random(2))
    assert(l.hash(v, 0) == l.hash(v.clone(), 0))
  }

  test("bit collision probability tracks 1 - theta/pi (paper Eq. 2)") {
    val dim = 24
    val rnd = new Random(7)
    val l = RandomHyperplaneLSH(dim, 200, 10, seed = 11) // 2000 independent bits
    for (theta <- Seq(0.3, 0.8, 1.5)) {
      var agree = 0; var total = 0
      for (_ <- 0 until 20) {
        val a = unit(dim, rnd)
        val b = atAngle(a, theta, rnd)
        for (h <- 0 until 200) {
          val ka = l.hash(a, h); val kb = l.hash(b, h)
          agree += 10 - java.lang.Long.bitCount(ka ^ kb)
          total += 10
        }
      }
      val got = agree.toDouble / total
      val expected = 1.0 - theta / math.Pi
      assert(math.abs(got - expected) < 0.03, s"theta=$theta got=$got expected=$expected")
    }
  }

  test("collision probability decreases with angle (locality sensitivity)") {
    val dim = 24
    val rnd = new Random(13)
    val l = RandomHyperplaneLSH(dim, 100, 10, seed = 17)
    def agreeFrac(theta: Double): Double = {
      var agree = 0; var total = 0
      for (_ <- 0 until 30) {
        val a = unit(dim, rnd); val b = atAngle(a, theta, rnd)
        for (h <- 0 until 100) {
          agree += 10 - java.lang.Long.bitCount(l.hash(a, h) ^ l.hash(b, h)); total += 10
        }
      }
      agree.toDouble / total
    }
    val f1 = agreeFrac(0.2); val f2 = agreeFrac(1.0); val f3 = agreeFrac(2.2)
    assert(f1 > f2 && f2 > f3, s"$f1, $f2, $f3")
  }

  test("margins' signs match the hashed bits") {
    val l = RandomHyperplaneLSH(8, 2, 6, seed = 19)
    val v = unit(8, new Random(3))
    for (h <- 0 until 2) {
      val key = l.hash(v, h)
      val ms = l.margins(v, h)
      for (i <- 0 until 6)
        assert((ms(i) >= 0) == (Hashkey.bitAt(key, i, 6) == 1), s"h=$h bit=$i")
    }
  }

  test("fromPlanes reproduces the same hashes") {
    val l = RandomHyperplaneLSH(12, 3, 8, seed = 23)
    val copy = RandomHyperplaneLSH.fromPlanes(l.planes)
    val v = unit(12, new Random(4))
    assert(copy.dim == 12 && copy.numKeys == 3 && copy.keyLen == 8)
    assert(l.hashAll(v).toSeq == copy.hashAll(v).toSeq)
  }

  /** Per-plane hashing, the loop `hash` replaced, kept as the reference. */
  private def referenceHash(l: RandomHyperplaneLSH, v: Array[Float], h: Int): Long = {
    var key = 0L
    for (i <- 0 until l.keyLen) key = (key << 1) | (if (VecOps.dot(v, l.planes(h)(i)) >= 0.0) 1L else 0L)
    key
  }

  test("hash and margins keep the bits of one dot product per plane, for every key length") {
    // Zero components of both signs in planes and vectors give dot products
    // of exactly 0.0, which hash to 1.
    val component: Gen[Float] = Gen.frequency(
      6 -> Gen.choose(-1.0, 1.0).map(_.toFloat), 2 -> Gen.oneOf(0.0f, -0.0f), 1 -> Gen.choose(-1e6, 1e6).map(_.toFloat))
    val gen = for {
      dim <- Gen.choose(1, 20)
      numKeys <- Gen.choose(1, 3)
      keyLen <- Gen.choose(1, Hashkey.MaxLen)
      planes <- Gen.listOfN(numKeys * keyLen, Gen.listOfN(dim, component).map(_.toArray))
      v <- Gen.oneOf(Gen.listOfN(dim, component).map(_.toArray), Gen.const(Array.fill(dim)(-0.0f)))
    } yield (RandomHyperplaneLSH.fromPlanes(planes.toArray.grouped(keyLen).toArray), v)
    checkProp(Prop.forAll(gen) { case (l, v) =>
      (0 until l.numKeys).forall { h =>
        l.hash(v, h) == referenceHash(l, v, h) &&
          l.margins(v, h).map(java.lang.Double.doubleToRawLongBits).toSeq ==
            (0 until l.keyLen).map(i => java.lang.Double.doubleToRawLongBits(VecOps.dot(v, l.planes(h)(i))))
      }
    }, minSuccessful = 300)
  }

  test("a truncated or copied plane set is a prefix of its source; a foreign one is not") {
    val l = RandomHyperplaneLSH(12, 3, 10, seed = 29)
    assert(l.truncate(4).isPrefixOf(l) && l.isPrefixOf(l))
    assert(RandomHyperplaneLSH.fromPlanes(l.planes.map(_.take(7).map(_.clone))).isPrefixOf(l))
    assert(!l.isPrefixOf(l.truncate(4)))
    assert(!RandomHyperplaneLSH(12, 3, 10, seed = 30).isPrefixOf(l))
    assert(!RandomHyperplaneLSH(12, 2, 10, seed = 29).isPrefixOf(l))
    assert(!RandomHyperplaneLSH(13, 3, 10, seed = 29).isPrefixOf(l))
    val onePlaneOff = l.planes.map(_.map(_.clone))
    onePlaneOff(2)(5)(11) = Math.nextUp(onePlaneOff(2)(5)(11))
    assert(!RandomHyperplaneLSH.fromPlanes(onePlaneOff).isPrefixOf(l))
  }

  test("keyLen beyond the packed-Long limit is rejected") {
    intercept[IllegalArgumentException](RandomHyperplaneLSH(8, 1, 63, seed = 1))
  }
}
