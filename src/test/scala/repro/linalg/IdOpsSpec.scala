package repro.linalg

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import scala.util.Random

class IdOpsSpec extends AnyFunSuite with PropertySupport {

  /** The `ArrayBuffer` grouping `group` replaced, kept as the reference. */
  private def referenceGroup(bucketOf: Array[Int], buckets: Int): Seq[Seq[Int]] = {
    val out = Array.fill(buckets)(new scala.collection.mutable.ArrayBuffer[Int])
    var i = 0
    while (i < bucketOf.length) { out(bucketOf(i)) += i; i += 1 }
    out.toSeq.map(_.toSeq)
  }

  /** The `HashSet` dedupe `distinct` replaced, kept as the reference. */
  private def referenceDistinct(lists: Array[Array[Int]]): Seq[Int] = {
    val seen = new java.util.HashSet[Int]()
    val out = scala.collection.mutable.ArrayBuffer[Int]()
    for (list <- lists; id <- list) if (seen.add(id)) out += id
    out.toSeq
  }

  test("group equals the ArrayBuffer grouping, empty buckets included") {
    val gen = for {
      buckets <- Gen.choose(1, 40)
      n <- Gen.oneOf(Gen.choose(0, 5), Gen.choose(0, 400))
      // Few used buckets leave most of them empty; all of them fills them.
      used <- Gen.choose(1, buckets)
      seed <- Gen.choose(0L, 1000L)
    } yield (buckets, n, used, seed)
    checkProp(Prop.forAll(gen) { case (buckets, n, used, seed) =>
      val rnd = new Random(seed)
      val bucketOf = Array.fill(n)(rnd.nextInt(used) * (buckets / used))
      IdOps.group(bucketOf, buckets).toSeq.map(_.toSeq) == referenceGroup(bucketOf, buckets)
    }, minSuccessful = 300)
  }

  test("group of no indices is one empty array per bucket") {
    assert(IdOps.group(Array.emptyIntArray, 3).map(_.length).toSeq == Seq(0, 0, 0))
  }

  /** `lists` lists of ids in `0 until universe`, of lengths up to `maxLen`,
    * each repeating earlier lists' ids about half the time.
    */
  private def lists(count: Int, maxLen: Int, universe: Int, rnd: Random): Array[Array[Int]] = {
    val drawn = scala.collection.mutable.ArrayBuffer[Int]()
    Array.fill(count) {
      Array.fill(rnd.nextInt(maxLen + 1)) {
        val id = if (drawn.nonEmpty && rnd.nextBoolean()) drawn(rnd.nextInt(drawn.length)) else rnd.nextInt(universe)
        drawn += id
        id
      }
    }
  }

  test("distinct equals the HashSet dedupe, order included, at in-cluster universes") {
    val gen = for {
      universe <- Gen.oneOf(Gen.choose(1, 64), Gen.choose(65, 600))
      count <- Gen.choose(0, 12)
      maxLen <- Gen.choose(0, 320)
      seed <- Gen.choose(0L, 1000L)
    } yield (universe, count, maxLen, seed)
    checkProp(Prop.forAll(gen) { case (universe, count, maxLen, seed) =>
      val ls = lists(count, maxLen, universe, new Random(seed))
      IdOps.distinct(ls, universe).toSeq == referenceDistinct(ls)
    }, minSuccessful = 300)
  }

  test("distinct equals the HashSet dedupe at a corpus-sized universe") {
    // Table 3's standalone core model: 32–64 arrays of R = 300 over 210k ids.
    val rnd = new Random(3)
    for (count <- Seq(32, 48, 64)) {
      val ls = lists(count, 300, 210_000, rnd)
      assert(IdOps.distinct(ls, 210_000).toSeq == referenceDistinct(ls))
    }
  }

  test("distinct equals the HashSet dedupe on multi-probe bucket lists") {
    // Multi-probe probes up to 12 tables × 16 buckets, each a bucket's rows
    // in ascending order; the same row sits in one bucket per table.
    val rnd = new Random(4)
    val n = 1000
    for (_ <- 0 until 20) {
      val ls = Array.fill(12 * 16) {
        val start = rnd.nextInt(n)
        Array.iterate(start, 1 + rnd.nextInt(12))(i => (i + 1 + rnd.nextInt(40)) % n).distinct.sorted
      }
      assert(IdOps.distinct(ls, n).toSeq == referenceDistinct(ls))
    }
  }

  test("distinct sizes its output at most to the universe") {
    val ls = Array(Array(2, 0, 1), Array(1, 2, 0, 0))
    assert(IdOps.distinct(ls, 3).toSeq == Seq(2, 0, 1))
    assert(IdOps.distinct(Array.empty[Array[Int]], 5).isEmpty)
  }
}
