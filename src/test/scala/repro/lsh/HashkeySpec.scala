package repro.lsh

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport

class HashkeySpec extends AnyFunSuite with PropertySupport {

  private def key(s: String): Long = Hashkey.pack(s.map(_ - '0').toArray, s.length)

  private val mGen = Gen.choose(2, 24)
  private def keyGen(m: Int): Gen[Long] = Gen.choose(0L, (1L << m) - 1)

  test("pack/bitAt round-trip") {
    checkProp(Prop.forAll(mGen.flatMap(m => keyGen(m).map((m, _)))) { case (m, k) =>
      val bits = Array.tabulate(m)(i => Hashkey.bitAt(k, i, m))
      Hashkey.pack(bits, m) == k
    })
  }

  test("render shows the binary string") {
    assert(Hashkey.render(key("10110"), 5) == "10110")
    assert(Hashkey.render(0L, 4) == "0000")
  }

  test("numeric order on packed keys equals lexicographic order on strings") {
    checkProp(Prop.forAll(for {
      m <- mGen
      a <- keyGen(m); b <- keyGen(m)
    } yield (m, a, b)) { case (m, a, b) =>
      val sa = Hashkey.render(a, m); val sb = Hashkey.render(b, m)
      java.lang.Long.compare(a, b).sign == sa.compareTo(sb).sign
    })
  }

  test("commonPrefixLen of identical keys is m") {
    assert(Hashkey.commonPrefixLen(key("1010"), key("1010"), 4) == 4)
  }

  test("commonPrefixLen counts leading shared bits") {
    assert(Hashkey.commonPrefixLen(key("101100"), key("101010"), 6) == 3)
    assert(Hashkey.commonPrefixLen(key("000000"), key("100000"), 6) == 0)
  }

  test("KL is m minus the common prefix length") {
    assert(Hashkey.kl(key("101100"), key("101010"), 6) == 3)
    assert(Hashkey.kl(key("111111"), key("111111"), 6) == 0)
  }

  test("original KD is identically 1 for differing binary keys (the low resolution problem)") {
    checkProp(Prop.forAll(for {
      m <- mGen
      a <- keyGen(m); b <- keyGen(m)
    } yield (a, b)) { case (a, b) =>
      Hashkey.kdOriginal(a, b) == (if (a == b) 0 else 1)
    })
  }

  test("paper §4.2 worked example: original dist cannot separate K1 from K2") {
    val kq = key("000000"); val k1 = key("111111"); val k2 = key("100000")
    assert(Hashkey.distOriginal(kq, k1, 6) == Hashkey.distOriginal(kq, k2, 6))
    assert(Hashkey.distOriginal(kq, k1, 6) == 6.5) // KL=6, KD/C = 1/2
  }

  test("paper §4.2 worked example: dist_e with B=3 separates them (6+7/C vs 6+4/C)") {
    val kq = key("000000"); val k1 = key("111111"); val k2 = key("100000")
    val c = (1 << 3).toDouble
    assert(Hashkey.distExtended(kq, k1, 6, 3) == 6 + 7 / c)
    assert(Hashkey.distExtended(kq, k2, 6, 3) == 6 + 4 / c)
    assert(Hashkey.distExtended(kq, k2, 6, 3) < Hashkey.distExtended(kq, k1, 6, 3))
  }

  test("KD_e window zero-pads past the end of the key") {
    // Keys differ at the last position: l = 3, window of B=3 covers one real bit.
    val a = key("1110"); val b = key("1111")
    assert(Hashkey.kdExtended(a, b, 4, 3) == 4) // |000 - 100| = 4
  }

  /** KD_e by its definition: read both b-bit windows bit by bit. */
  private def kdExtendedByBits(k1: Long, k2: Long, m: Int, b: Int): Long = {
    if (k1 == k2) return 0L
    val l = Hashkey.commonPrefixLen(k1, k2, m)
    var v1 = 0L; var v2 = 0L
    for (pos <- l until l + b) {
      v1 = (v1 << 1) | (if (pos < m) Hashkey.bitAt(k1, pos, m) else 0)
      v2 = (v2 << 1) | (if (pos < m) Hashkey.bitAt(k2, pos, m) else 0)
    }
    math.abs(v1 - v2)
  }

  test("KD_e equals the bit-by-bit window definition for m <= 62 and B in 1..8") {
    // k2 shares k1's first l bits and differs at bit l, so every prefix
    // length is drawn, including windows that run past the key's end.
    val gen = for {
      m <- Gen.choose(1, Hashkey.MaxLen); bWin <- Gen.choose(1, 8)
      k1 <- keyGen(m); l <- Gen.choose(0, m); tail <- keyGen(m)
    } yield {
      if (l == m) (m, bWin, k1, k1)
      else {
        val flip = 1L << (m - 1 - l) // bit l, counted from the most significant
        val after = flip - 1 // the bits after it
        (m, bWin, k1, (k1 & ~(flip | after)) | (~k1 & flip) | (tail & after))
      }
    }
    checkProp(Prop.forAll(gen) { case (m, bWin, k1, k2) =>
      Hashkey.kdExtended(k1, k2, m, bWin) == kdExtendedByBits(k1, k2, m, bWin)
    }, minSuccessful = 2000)
  }

  test("KD_e is bounded by 2^B - 1") {
    checkProp(Prop.forAll(for {
      m <- mGen; bWin <- Gen.choose(1, 6)
      a <- keyGen(m); b <- keyGen(m)
    } yield (m, bWin, a, b)) { case (m, bWin, a, b) =>
      val kd = Hashkey.kdExtended(a, b, m, bWin)
      kd >= 0 && kd < (1L << bWin)
    })
  }

  test("dist_e of identical keys is zero") {
    checkProp(Prop.forAll(mGen.flatMap(m => keyGen(m).map((m, _)))) { case (m, k) =>
      Hashkey.distExtended(k, k, m, 3) == 0.0
    })
  }

  test("dist_e is symmetric") {
    checkProp(Prop.forAll(for {
      m <- mGen
      a <- keyGen(m); b <- keyGen(m)
    } yield (m, a, b)) { case (m, a, b) =>
      Hashkey.distExtended(a, b, m, 3) == Hashkey.distExtended(b, a, m, 3)
    })
  }

  test("dist_e fractional part stays below 1 (KL dominates)") {
    checkProp(Prop.forAll(for {
      m <- mGen; bWin <- Gen.choose(1, 6)
      a <- keyGen(m); b <- keyGen(m)
    } yield (m, bWin, a, b)) { case (m, bWin, a, b) =>
      val d = Hashkey.distExtended(a, b, m, bWin)
      a == b || (d >= Hashkey.kl(a, b, m) && d < Hashkey.kl(a, b, m) + 1)
    })
  }

  test("Lemma 4.3: dist_e to a fixed key is monotone when moving left along the sorted order") {
    // For sorted k2 ≤ k1 ≤ k: dist_e(k2, k) ≥ dist_e(k1, k).
    checkProp(Prop.forAll(for {
      m <- mGen
      xs <- Gen.listOfN(3, keyGen(m))
    } yield (m, xs.sorted)) { case (m, sorted) =>
      val Seq(k2, k1, k) = sorted
      Hashkey.distExtended(k2, k, m, 3) >= Hashkey.distExtended(k1, k, m, 3)
    }, minSuccessful = 500)
  }

  test("Lemma 4.4: dist_e to a fixed key is monotone when moving right along the sorted order") {
    // For sorted k ≤ k1 ≤ k2: dist_e(k2, k) ≥ dist_e(k1, k).
    checkProp(Prop.forAll(for {
      m <- mGen
      xs <- Gen.listOfN(3, keyGen(m))
    } yield (m, xs.sorted)) { case (m, sorted) =>
      val Seq(k, k1, k2) = sorted
      Hashkey.distExtended(k2, k, m, 3) >= Hashkey.distExtended(k1, k, m, 3)
    }, minSuccessful = 500)
  }

  test("original dist also satisfies the linear-order monotonicity") {
    checkProp(Prop.forAll(for {
      m <- mGen
      xs <- Gen.listOfN(3, keyGen(m))
    } yield (m, xs.sorted)) { case (m, sorted) =>
      val Seq(k2, k1, k) = sorted
      Hashkey.distOriginal(k2, k, m) >= Hashkey.distOriginal(k1, k, m)
    }, minSuccessful = 300)
  }

  test("dist_e refines but never contradicts KL ordering") {
    checkProp(Prop.forAll(for {
      m <- mGen
      a <- keyGen(m); b <- keyGen(m); c <- keyGen(m)
    } yield (m, a, b, c)) { case (m, a, b, c) =>
      val klAb = Hashkey.kl(a, b, m); val klAc = Hashkey.kl(a, c, m)
      klAb == klAc ||
        (klAb < klAc) == (Hashkey.distExtended(a, b, m, 3) < Hashkey.distExtended(a, c, m, 3))
    })
  }

  test("pack rejects keys longer than the packed-Long limit") {
    intercept[IllegalArgumentException](Hashkey.pack(Array.fill(63)(1), 63))
  }
}
