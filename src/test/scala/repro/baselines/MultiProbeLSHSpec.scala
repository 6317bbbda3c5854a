package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Scored, TopK}
import repro.lsh.RandomHyperplaneLSH
import repro.retrieval.{Metrics, RetrievalData}

class MultiProbeLSHSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1000, 32, seed = 51)
  private lazy val flat = new Flat(corpus.vectors, corpus.ids)
  private lazy val idx = MultiProbeLSH.build(corpus.vectors, corpus.ids,
    numTables = 12, keyLen = 10, probesPerTable = 16)

  test("probe sequence starts with the unperturbed key") {
    val margins = Array(0.5, -0.1, 2.0, 0.05)
    val got = MultiProbeLSH.probeSequence(key = 0b1010L, margins, m = 4, numProbes = 5)
    assert(got(0) == 0b1010L)
  }

  test("probe sequence keys are distinct") {
    val margins = Array(0.5, -0.1, 2.0, 0.05, -0.7, 1.1)
    val got = MultiProbeLSH.probeSequence(0b101010L, margins, 6, 12)
    assert(got.distinct.length == got.length)
  }

  test("first perturbation flips the lowest-|margin| bit") {
    val margins = Array(0.5, -0.1, 2.0, 0.05)
    val got = MultiProbeLSH.probeSequence(0b0000L, margins, 4, 2)
    // Lowest |margin| is bit index 3 (0.05) → flip bit at Long position 4-1-3 = 0.
    assert(got(1) == 0b0001L)
  }

  test("probe costs are non-decreasing along the sequence") {
    val margins = Array(0.9, -0.2, 1.5, 0.1, -0.4, 0.05)
    val m = 6
    val got = MultiProbeLSH.probeSequence(0L, margins, m, 20)
    def cost(key: Long): Double =
      (0 until m).map { i =>
        val flipped = ((key >> (m - 1 - i)) & 1L) == 1L
        if (flipped) margins(i) * margins(i) else 0.0
      }.sum
    val costs = got.map(cost)
    assert(costs.sliding(2).forall(p => p(0) <= p(1) + 1e-12), costs.toSeq.toString)
  }

  test("numProbes=1 probes only the original bucket") {
    assert(MultiProbeLSH.probeSequence(7L, Array(1.0, 1.0, 1.0), 3, 1).toSeq == Seq(7L))
  }

  test("search returns sorted exact-scored results") {
    val got = idx.search(corpus.vectors(0), 10)
    assert(got.sliding(2).forall(p => p.length < 2 || p(0).score >= p(1).score))
    assert(got.forall(s => s.score <= 1.0 + 1e-6))
  }

  test("recall@10 vs Flat is non-trivial") {
    val recalls = (0 until 30).map { i =>
      val q = corpus.vectors(i * 7 + 2)
      Metrics.recallAt(idx.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }
    val mean = recalls.sum / recalls.length
    assert(mean > 0.3, s"recall=$mean")
  }

  test("more probes do not reduce average recall") {
    val narrow = MultiProbeLSH.build(corpus.vectors, corpus.ids, 12, 10, probesPerTable = 1)
    val wide = MultiProbeLSH.build(corpus.vectors, corpus.ids, 12, 10, probesPerTable = 32)
    def meanRecall(ix: MultiProbeLSH): Double = (0 until 25).map { i =>
      val q = corpus.vectors(i * 13 + 3)
      Metrics.recallAt(ix.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }.sum / 25
    assert(meanRecall(wide) >= meanRecall(narrow) - 1e-9)
  }

  /** `search` with the `HashSet` dedupe it replaced, kept as the
    * reference. Its tables are `build`'s, rebuilt from the same planes.
    */
  private def referenceSearch(numTables: Int, keyLen: Int, probes: Int): (Array[Float], Int) => Array[Scored] = {
    val lsh = RandomHyperplaneLSH(corpus.vectors(0).length, numTables, keyLen, 43L)
    val tables = Array.tabulate(numTables)(t => corpus.vectors.indices.groupBy(i => lsh.hash(corpus.vectors(i), t)))
    (q, k) => {
      val seen = new java.util.HashSet[Int]()
      val cands = scala.collection.mutable.ArrayBuffer[Int]()
      for (t <- 0 until numTables) {
        val margins = lsh.margins(q, t)
        for (key <- MultiProbeLSH.probeSequence(lsh.key(margins), margins, keyLen, probes);
             bucket <- tables(t).get(key); i <- bucket)
          if (seen.add(i)) cands += i
      }
      TopK.verify(q, corpus.vectors, corpus.ids, cands.toArray, k)
    }
  }

  test("search equals the HashSet-dedupe reference, ids and score bits") {
    def bits(hits: Array[Scored]) = hits.toSeq.map(h => (h.id, java.lang.Double.doubleToRawLongBits(h.score)))
    for (probes <- Seq(1, 4, 16, 64)) {
      val ix = MultiProbeLSH.build(corpus.vectors, corpus.ids, 12, 10, probes)
      val reference = referenceSearch(12, 10, probes)
      for ((q, i) <- RetrievalData.pointTask(corpus, 30, seed = 9).queries.zipWithIndex; k <- Seq(10, 100)) {
        assert(bits(ix.search(q, k)) == bits(reference(q, k)), s"probes = $probes, query $i, k = $k")
      }
    }
  }

  test("build rejects a key length whose sorted-array entries exceed 63 bits, naming M and n") {
    // n = 1000 takes 10 id bits, so M = 53 is the widest key.
    val widest = MultiProbeLSH.build(corpus.vectors, corpus.ids, 1, 53, 1)
    assert(widest.search(corpus.vectors(0), 1).head.id == corpus.ids(0))
    val e = intercept[IllegalArgumentException](MultiProbeLSH.build(corpus.vectors, corpus.ids, 1, 54, 1))
    assert(e.getMessage.contains("M = 54 does not fit n = 1000"), e.getMessage)
  }

  test("name matches the paper's label") {
    assert(idx.name == "FALCONN")
  }
}
