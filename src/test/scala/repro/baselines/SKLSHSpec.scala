package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CoreModel, CoreModelParams}
import repro.retrieval.{Metrics, RetrievalData}

class SKLSHSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1200, 32, seed = 61)
  private lazy val flat = new Flat(corpus.vectors, corpus.ids)
  private lazy val idx = SKLSH.build(corpus.vectors, corpus.ids, numArrays = 12, keyLen = 11)

  test("search returns k sorted results") {
    val got = idx.search(corpus.vectors(0), 10)
    assert(got.length == 10)
    assert(got.sliding(2).forall(p => p(0).score >= p(1).score))
  }

  test("an r0 for which r0·k exceeds Int.MaxValue verifies every entry: search equals Flat") {
    val huge = new SKLSH(corpus.vectors, corpus.ids, idx.esklsh, r0 = 1 << 30)
    for (i <- 0 until 10; q = corpus.vectors(i * 17 + 2))
      assert(huge.search(q, 10).toSeq == flat.search(q, 10).toSeq, s"query $i")
  }

  test("self-retrieval mostly succeeds") {
    var hits = 0
    for (i <- 0 until 40) {
      val got = idx.search(corpus.vectors(i * 11), 5)
      if (got.nonEmpty && got(0).id == i * 11) hits += 1
    }
    assert(hits >= 36, s"hits=$hits / 40")
  }

  test("recall@10 vs Flat is non-trivial") {
    val recalls = (0 until 30).map { i =>
      val q = corpus.vectors(i * 7 + 4)
      Metrics.recallAt(idx.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }
    val mean = recalls.sum / recalls.length
    assert(mean > 0.3, s"recall=$mean")
  }

  test("ESK-LSH core model beats or matches original SK-LSH recall on cosine data (the paper's premise)") {
    // Same array/budget configuration; the core model adds dist_e + parallel
    // expansion + RMI. Compare mean recall over the same query set.
    val cm = CoreModel.build(corpus.vectors, corpus.ids,
      CoreModelParams(numArrays = 12, r0 = 3)) // M = ceil(log2 1200) = 11, as SK-LSH's
    def mean(f: Array[Float] => Array[Long]): Double = (0 until 40).map { i =>
      val q = corpus.vectors(i * 13 + 7)
      Metrics.recallAt(f(q), flat.search(q, 10).map(_.id), 10)
    }.sum / 40
    val eskRecall = mean(q => cm.search(q, 10).map(_.id))
    val skRecall = mean(q => idx.search(q, 10).map(_.id))
    assert(eskRecall >= skRecall - 0.1, s"esk=$eskRecall sk=$skRecall")
  }

  test("name matches the paper's label") {
    assert(idx.name == "SK-LSH")
  }
}
