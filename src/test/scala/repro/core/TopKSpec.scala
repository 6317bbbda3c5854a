package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport

class TopKSpec extends AnyFunSuite with PropertySupport {

  private val scoredGen: Gen[Array[Scored]] =
    Gen.choose(0, 100).flatMap { n =>
      Gen.listOfN(n, Gen.zip(Gen.choose(0L, 30L), Gen.choose(-1.0, 1.0)))
        .map(_.map { case (id, s) => Scored(id, s) }.toArray)
    }

  private def collect(xs: Array[Scored], k: Int): Array[Scored] = {
    val top = new TopK.Collector(k)
    xs.foreach(s => top.offer(s.id, s.score))
    top.result()
  }

  /** The tuple ordering `TopK.ordering` replaced, kept as the reference. */
  private val tupleOrdering: Ordering[Scored] = Ordering.by[Scored, (Double, Long)](s => (-s.score, s.id))

  private val specialScore: Gen[Double] = Gen.oneOf(
    Gen.oneOf(Double.NaN, 0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity,
      Double.MinPositiveValue, Double.MaxValue, java.lang.Double.longBitsToDouble(0x7ff8000000000123L)),
    Gen.choose(-1.0, 1.0))

  test("collector returns at most k elements, sorted descending by score") {
    checkProp(Prop.forAll(Gen.zip(scoredGen, Gen.choose(1, 20))) { case (xs, k) =>
      val got = collect(xs, k)
      got.length == math.min(k, xs.length) &&
        got.sliding(2).forall(p => p.length < 2 || p(0).score >= p(1).score)
    })
  }

  test("collector matches full sort + take") {
    checkProp(Prop.forAll(Gen.zip(scoredGen, Gen.choose(1, 20))) { case (xs, k) =>
      collect(xs, k).toSeq == xs.sorted(TopK.ordering).take(k).toSeq
    })
  }

  test("collector keeps the same raw score bits as a sort under the tuple ordering, special values included") {
    // Distinct ids, as candidates are: two NaNs with different payloads and
    // one id would tie under both orderings and could come out either way.
    val gen = Gen.zip(Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, specialScore)), Gen.long, Gen.choose(1, 20))
    checkProp(Prop.forAll(gen) { case (scores, seed, k) =>
      val ids = new scala.util.Random(seed).shuffle(scores.indices.map(_.toLong))
      val xs = ids.zip(scores).map { case (id, s) => Scored(id, s) }.toArray
      def bits(a: Array[Scored]) = a.map(s => (s.id, java.lang.Double.doubleToRawLongBits(s.score))).toSeq
      bits(collect(xs, k)) == bits(xs.sorted(tupleOrdering).take(k))
    })
  }

  test("collector rejects k <= 0") {
    assertThrows[IllegalArgumentException](new TopK.Collector(0))
    assertThrows[IllegalArgumentException](new TopK.Collector(-3))
  }

  test("ordering agrees with the tuple ordering on every pair of special values") {
    val specials = Seq(Double.NaN, -Double.NaN, 0.0, -0.0, 1.0, -1.0, Double.PositiveInfinity,
      Double.NegativeInfinity, Double.MinPositiveValue, -Double.MinPositiveValue)
    for (a <- specials; b <- specials; ia <- Seq(1L, 2L); ib <- Seq(1L, 2L)) {
      val (x, y) = (Scored(ia, a), Scored(ib, b))
      assert(math.signum(TopK.ordering.compare(x, y)) == math.signum(tupleOrdering.compare(x, y)), s"$x vs $y")
    }
  }

  test("ordering agrees with the tuple ordering on random pairs") {
    checkProp(Prop.forAll(Gen.zip(Gen.choose(0L, 3L), specialScore, Gen.choose(0L, 3L), specialScore)) {
      case (ia, a, ib, b) =>
        val (x, y) = (Scored(ia, a), Scored(ib, b))
        math.signum(TopK.ordering.compare(x, y)) == math.signum(tupleOrdering.compare(x, y))
    }, minSuccessful = 500)
  }

  test("ties break by ascending id (deterministic)") {
    val xs = Array(Scored(5, 1.0), Scored(2, 1.0), Scored(9, 1.0))
    assert(collect(xs, 2).map(_.id).toSeq == Seq(2L, 5L))
  }

  test("mergeSorted of disjoint sorted lists equals global sort") {
    checkProp(Prop.forAll(Gen.choose(1, 5).flatMap { nl =>
      Gen.listOfN(nl, Gen.choose(0, 20)).map { sizes =>
        var nextId = 0L
        sizes.map { sz =>
          Array.fill(sz) { nextId += 1; Scored(nextId, scala.util.Random.nextDouble()) }
            .sorted(TopK.ordering)
        }.toArray
      }
    }) { lists =>
      val k = 10
      val got = TopK.mergeSorted(lists, k)
      val expected = lists.flatten.sorted(TopK.ordering).take(k)
      got.toSeq == expected.toSeq
    })
  }

  test("mergeSorted with k larger than total returns everything") {
    val lists = Array(
      Array(Scored(1, 0.9), Scored(2, 0.5)),
      Array(Scored(3, 0.7)))
    val got = TopK.mergeSorted(lists, 100)
    assert(got.map(_.id).toSeq == Seq(1L, 3L, 2L))
  }

  test("mergeSorted deduplicates overlapping ids, keeping the best-scored") {
    val lists = Array(
      Array(Scored(1, 0.9), Scored(2, 0.5)),
      Array(Scored(1, 0.8), Scored(3, 0.1)))
    val got = TopK.mergeSorted(lists, 10)
    assert(got.map(_.id).toSeq == Seq(1L, 2L, 3L))
    assert(got(0).score == 0.9)
  }

  test("mergeSorted of empty input is empty") {
    assert(TopK.mergeSorted(Array.empty, 5).isEmpty)
    assert(TopK.mergeSorted(Array(Array.empty[Scored]), 5).isEmpty)
  }

  test("collector with k=1 returns the single best") {
    val xs = Array(Scored(1, 0.2), Scored(2, 0.9), Scored(3, 0.5))
    assert(collect(xs, 1).map(_.id).toSeq == Seq(2L))
  }

  test("ordering sorts by score desc then id asc") {
    val xs = Seq(Scored(2, 0.5), Scored(1, 0.5), Scored(3, 0.9)).sorted(TopK.ordering)
    assert(xs.map(_.id) == Seq(3L, 1L, 2L))
  }
}
