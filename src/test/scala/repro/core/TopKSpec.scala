package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.linalg.VecOps

class TopKSpec extends AnyFunSuite with PropertySupport {

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

  /** Lists of up to 500 hits with repeated scores and ids, fed best first,
    * worst first or shuffled, and k up to 200 or at the list's edges
    * (1, n − 1, n, n + 3): k = 100 already builds a seven-level heap.
    */
  private val deepGen: Gen[(Array[Scored], Int)] = for {
    n <- Gen.frequency(1 -> Gen.choose(0, 20), 3 -> Gen.choose(21, 500))
    distinctScores <- Gen.choose(1, math.max(1, n))
    pool <- Gen.listOfN(distinctScores, Gen.choose(-1.0, 1.0))
    picks <- Gen.listOfN(n, Gen.choose(0, distinctScores - 1))
    ids <- Gen.listOfN(n, Gen.choose(0L, 2L * n))
    order <- Gen.oneOf("best first", "worst first", "shuffled")
    seed <- Gen.long
    k <- Gen.oneOf(Gen.choose(1, 200), Gen.oneOf(1, n - 1, n, n + 3).map(math.max(1, _)))
  } yield {
    val xs = ids.zip(picks).map { case (id, p) => Scored(id, pool(p)) }.toArray
    val fed = order match {
      case "best first" => xs.sorted(TopK.ordering)
      case "worst first" => xs.sorted(TopK.ordering).reverse
      case _ => new scala.util.Random(seed).shuffle(xs.toSeq).toArray
    }
    (fed, k)
  }

  test("collector returns at most k elements, sorted descending by score") {
    checkProp(Prop.forAll(deepGen) { case (xs, k) =>
      val got = collect(xs, k)
      got.length == math.min(k, xs.length) &&
        got.sliding(2).forall(p => p.length < 2 || p(0).score >= p(1).score)
    }, minSuccessful = 300)
  }

  test("collector matches full sort + take") {
    checkProp(Prop.forAll(deepGen) { case (xs, k) =>
      collect(xs, k).toSeq == xs.sorted(TopK.ordering).take(k).toSeq
    }, minSuccessful = 300)
  }

  test("collector with k past its first allocation grows and keeps the same hits") {
    val rnd = new scala.util.Random(17)
    for (n <- Seq(1500, 5000); k <- Seq(1024, 1025, 3000)) {
      val xs = Array.fill(n)(Scored(rnd.nextInt(2 * n).toLong, rnd.nextInt(400) / 400.0))
      assert(collect(xs, k).toSeq == xs.sorted(TopK.ordering).take(k).toSeq, s"n = $n, k = $k")
    }
  }

  test("collector keeps the same raw score bits as a sort under the tuple ordering, special values included") {
    // Distinct ids, as candidates are: two NaNs with different payloads and
    // one id would tie under both orderings and could come out either way.
    val gen = for {
      n <- Gen.frequency(1 -> Gen.choose(0, 40), 1 -> Gen.choose(41, 300))
      scores <- Gen.listOfN(n, specialScore)
      seed <- Gen.long
      k <- Gen.oneOf(Gen.choose(1, 200), Gen.oneOf(1, n - 1, n, n + 3).map(math.max(1, _)))
    } yield (scores, seed, k)
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

  /** Per-candidate verification, the loop `TopK.verify` replaced, kept as
    * the reference.
    */
  private def referenceVerify(
      q: Array[Float], vectors: Array[Array[Float]], ids: Array[Long], candidates: Array[Int], k: Int): Array[Scored] = {
    val top = new TopK.Collector(k)
    val rows = if (candidates == null) vectors.indices.toArray else candidates
    rows.foreach(c => top.offer(ids(c), VecOps.dot(q, vectors(c))))
    top.result()
  }

  test("verify keeps the ids and raw score bits of per-candidate dot products") {
    // Zeros of both signs give dot products of exactly 0.0; wide magnitudes
    // make any change in summation order show in the low bits.
    val component: Gen[Float] = Gen.frequency(
      6 -> Gen.choose(-1.0, 1.0).map(_.toFloat), 2 -> Gen.oneOf(0.0f, -0.0f), 1 -> Gen.choose(-1e6, 1e6).map(_.toFloat))
    val gen = for {
      dim <- Gen.choose(1, 70)
      n <- Gen.choose(1, 12)
      vectors <- Gen.listOfN(n, Gen.listOfN(dim, component).map(_.toArray))
      q <- Gen.oneOf(Gen.listOfN(dim, component).map(_.toArray), Gen.const(Array.fill(dim)(-0.0f)))
      count <- Gen.frequency(3 -> Gen.choose(0, 9), 1 -> Gen.choose(10, 40))
      candidates <- Gen.listOfN(count, Gen.choose(0, n - 1))
      k <- Gen.choose(1, 12)
      everyRow <- Gen.frequency(4 -> false, 1 -> true) // null candidates: every row, in place
    } yield (q, vectors.toArray, if (everyRow) null else candidates.distinct.toArray, k)
    def bits(a: Array[Scored]) = a.map(s => (s.id, java.lang.Double.doubleToRawLongBits(s.score))).toSeq
    checkProp(Prop.forAll(gen) { case (q, vectors, candidates, k) =>
      val ids = Array.tabulate(vectors.length)(i => 100L + i)
      bits(TopK.verify(q, vectors, ids, candidates, k)) == bits(referenceVerify(q, vectors, ids, candidates, k))
    }, minSuccessful = 300)
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
