package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport

class VecOpsSpec extends AnyFunSuite with PropertySupport {

  private val vecGen: Gen[Array[Float]] =
    Gen.choose(2, 32).flatMap(d => Gen.listOfN(d, Gen.choose(-5.0f, 5.0f)).map(_.toArray))

  private val pairGen: Gen[(Array[Float], Array[Float])] = for {
    d <- Gen.choose(2, 32)
    a <- Gen.listOfN(d, Gen.choose(-5.0f, 5.0f))
    b <- Gen.listOfN(d, Gen.choose(-5.0f, 5.0f))
  } yield (a.toArray, b.toArray)

  test("dot of orthogonal unit vectors is zero") {
    assert(VecOps.dot(Array(1f, 0f), Array(0f, 1f)) == 0.0)
  }

  test("dot of identical unit vector is one") {
    assert(math.abs(VecOps.dot(Array(0.6f, 0.8f), Array(0.6f, 0.8f)) - 1.0) < 1e-6)
  }

  test("dot is symmetric") {
    checkProp(Prop.forAll(pairGen) { case (a, b) =>
      math.abs(VecOps.dot(a, b) - VecOps.dot(b, a)) < 1e-9
    })
  }

  test("norm is non-negative") {
    checkProp(Prop.forAll(vecGen)(v => VecOps.norm(v) >= 0.0))
  }

  test("norm matches sqrt of self-dot") {
    checkProp(Prop.forAll(vecGen) { v =>
      math.abs(VecOps.norm(v) - math.sqrt(VecOps.dot(v, v))) < 1e-9
    })
  }

  test("sqDist of a vector to itself is zero") {
    checkProp(Prop.forAll(vecGen)(v => VecOps.sqDist(v, v) == 0.0))
  }

  test("sqDist is symmetric") {
    checkProp(Prop.forAll(pairGen) { case (a, b) =>
      math.abs(VecOps.sqDist(a, b) - VecOps.sqDist(b, a)) < 1e-9
    })
  }

  test("sqDist expands to norms and dot") {
    checkProp(Prop.forAll(pairGen) { case (a, b) =>
      val lhs = VecOps.sqDist(a, b)
      val rhs = VecOps.dot(a, a) + VecOps.dot(b, b) - 2 * VecOps.dot(a, b)
      math.abs(lhs - rhs) < 1e-6
    })
  }

  test("cosine is bounded in [-1, 1]") {
    checkProp(Prop.forAll(pairGen) { case (a, b) =>
      val c = VecOps.cosine(a, b)
      c >= -1.0 - 1e-9 && c <= 1.0 + 1e-9
    })
  }

  test("cosine of a vector with itself is one (non-zero vectors)") {
    val v = Array(1f, 2f, 3f)
    assert(math.abs(VecOps.cosine(v, v) - 1.0) < 1e-9)
  }

  test("cosine with a zero vector is defined as zero") {
    assert(VecOps.cosine(Array(0f, 0f), Array(1f, 1f)) == 0.0)
  }

  test("cosine is scale invariant") {
    val a = Array(1f, 2f, -1f); val b = Array(0.5f, 1f, 3f)
    val scaled = a.map(_ * 7.5f)
    assert(math.abs(VecOps.cosine(a, b) - VecOps.cosine(scaled, b)) < 1e-6)
  }

  test("normalized yields unit norm for non-zero vectors") {
    checkProp(Prop.forAll(vecGen.suchThat(v => VecOps.norm(v) > 1e-3)) { v =>
      math.abs(VecOps.norm(VecOps.normalized(v)) - 1.0) < 1e-4
    })
  }

  test("normalized preserves direction (cosine 1)") {
    val v = Array(3f, -4f, 12f)
    assert(math.abs(VecOps.cosine(v, VecOps.normalized(v)) - 1.0) < 1e-6)
  }

  test("normalized of the zero vector returns a copy of it") {
    val z = Array(0f, 0f, 0f)
    val n = VecOps.normalized(z)
    assert(n.toSeq == z.toSeq && !(n eq z))
  }

  test("dot on normalized vectors equals cosine") {
    checkProp(Prop.forAll(pairGen.suchThat { case (a, b) =>
      VecOps.norm(a) > 1e-3 && VecOps.norm(b) > 1e-3
    }) { case (a, b) =>
      val lhs = VecOps.dot(VecOps.normalized(a), VecOps.normalized(b))
      math.abs(lhs - VecOps.cosine(a, b)) < 1e-4
    })
  }

  test("addInPlace accumulates") {
    val acc = new Array[Double](3)
    VecOps.addInPlace(acc, Array(1f, 2f, 3f))
    VecOps.addInPlace(acc, Array(1f, 1f, 1f))
    assert(acc.toSeq == Seq(2.0, 3.0, 4.0))
  }

  test("sub subtracts elementwise") {
    assert(VecOps.sub(Array(3f, 5f), Array(1f, 2f)).toSeq == Seq(2f, 3f))
  }

  test("mean divides accumulator by count") {
    assert(VecOps.mean(Array(2.0, 4.0), 2).toSeq == Seq(1f, 2f))
  }
}
