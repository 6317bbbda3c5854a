package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Flat
import repro.linalg.VecOps
import repro.retrieval.{Metrics, RetrievalData}

class CoreModelSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1500, 32, seed = 42)
  private lazy val cm = CoreModel.build(corpus.vectors, corpus.ids, CoreModelParams(numArrays = 10, rmiWidth = 5, r0 = 5))
  private lazy val flat = new Flat(corpus.vectors, corpus.ids)

  test("build wires one RMI and one rescaler per array") {
    assert(cm.rmis.length == 10 && cm.rescalers.length == 10)
    assert(cm.esklsh.numArrays == 10)
    assert(cm.size == corpus.n)
  }

  test("hashkey length defaults to ceil(log2 n)") {
    assert(cm.esklsh.keyLen == 11) // ceil(log2 1500)
  }

  test("search returns k results sorted descending by score") {
    val got = cm.search(corpus.vectors(3), 10)
    assert(got.length == 10)
    assert(got.sliding(2).forall(p => p(0).score >= p(1).score))
  }

  test("searching with a corpus vector finds itself first") {
    var selfTop = 0
    for (i <- 0 until 40) {
      val got = cm.search(corpus.vectors(i), 5)
      if (got.nonEmpty && got(0).id == i) selfTop += 1
    }
    assert(selfTop >= 38, s"self-top hits $selfTop / 40")
  }

  test("scores are exact inner products (verification step is exact)") {
    val q = corpus.vectors(7)
    cm.search(q, 5).foreach { s =>
      assert(math.abs(s.score - VecOps.dot(q, corpus.vectors(s.id.toInt))) < 1e-9)
    }
  }

  test("recall@10 vs Flat is high on clusterable data") {
    val qs = (0 until 50).map(i => corpus.vectors(i * 7))
    val recalls = qs.map { q =>
      val exact = flat.search(q, 10).map(_.id)
      val approx = cm.search(q, 10).map(_.id)
      Metrics.recallAt(approx, exact, 10)
    }
    val mean = recalls.sum / recalls.length
    assert(mean > 0.6, s"mean recall@10 = $mean")
  }

  test("larger r0 never hurts candidate coverage") {
    val small = CoreModel.build(corpus.vectors, corpus.ids, CoreModelParams(numArrays = 4, r0 = 1, seed = 7))
    val large = CoreModel.build(corpus.vectors, corpus.ids, CoreModelParams(numArrays = 4, r0 = 8, seed = 7))
    val q = corpus.vectors(11)
    val keysS = small.esklsh.hashQuery(q)
    val startsS = Array.tabulate(4)(h => small.predictStart(h, keysS(h)))
    val candS = small.esklsh.expandAll(keysS, startsS, 1 * 10)
    val candL = large.esklsh.expandAll(keysS, startsS, 8 * 10)
    assert(candL.length >= candS.length)
  }

  test("search is deterministic") {
    val q = corpus.vectors(19)
    val a = cm.search(q, 10).toSeq
    val b = cm.search(q, 10).toSeq
    assert(a == b)
  }

  test("search equals the composition of the public calls just below, at and above full cover") {
    // 61 vectors and r0 = 3: k = 20 expands R = 60, one short of every
    // member, which one or two arrays leave out; k = 21 covers them all.
    val small = CoreModel.build(corpus.vectors.take(61), corpus.ids.take(61), CoreModelParams(numArrays = 1, rmiWidth = 2))
    val two = CoreModel.build(corpus.vectors.take(61), corpus.ids.take(61), CoreModelParams(numArrays = 2, rmiWidth = 2))
    def bits(a: Array[Scored]) = a.map(s => (s.id, java.lang.Double.doubleToRawLongBits(s.score))).toSeq
    for (m <- Seq(small, two); k <- Seq(19, 20, 21, 40); i <- 0 until 40) {
      val q = corpus.vectors(100 + i)
      val keys = m.esklsh.hashQuery(q)
      val starts = Array.tabulate(m.esklsh.numArrays)(h => m.predictStart(h, keys(h)))
      val composed = m.verify(q, m.esklsh.expandAll(keys, starts, m.r0 * k), k)
      assert(bits(m.search(q, k)) == bits(composed), s"H = ${m.esklsh.numArrays}, k = $k, query $i")
    }
  }

  test("rescaled RMI keys lie in [0, n-1] for training keys") {
    val keys = cm.esklsh.arrays(0).keys
    keys.foreach { k =>
      val x = cm.rmiKey(0, k)
      assert(x >= 0.0 && x <= (corpus.n - 1).toDouble)
    }
  }

  test("predictStart is within array bounds") {
    val q = corpus.vectors(31)
    val keys = cm.esklsh.hashQuery(q)
    for (h <- 0 until cm.esklsh.numArrays) {
      val s = cm.predictStart(h, keys(h))
      assert(s >= 0 && s < corpus.n)
    }
  }

  test("verify selects exact top-km among given candidates") {
    val q = corpus.vectors(41)
    val cands = Array.tabulate(100)(identity)
    val got = cm.verify(q, cands, 5)
    val expected = cands.map(i => Scored(i.toLong, VecOps.dot(q, corpus.vectors(i))))
      .sorted(TopK.ordering).take(5)
    assert(got.toSeq == expected.toSeq)
  }

  test("mismatched ids length rejected") {
    intercept[IllegalArgumentException](
      CoreModel.build(corpus.vectors, Array(1L), CoreModelParams()))
  }

  test("CoreModelParams rejects r0 <= 0, naming it") {
    for (r0 <- Seq(0, -1, Int.MinValue)) {
      val e = intercept[IllegalArgumentException](CoreModelParams(r0 = r0))
      assert(e.getMessage.contains(s"r0 = $r0"), e.getMessage)
    }
    assert(CoreModelParams(r0 = 1).r0 == 1)
  }

  test("CoreModelParams rejects numArrays <= 0 and rmiWidth <= 0, naming each") {
    for (bad <- Seq(0, -1, Int.MinValue)) {
      val h = intercept[IllegalArgumentException](CoreModelParams(numArrays = bad))
      assert(h.getMessage.contains(s"numArrays = $bad"), h.getMessage)
      val w = intercept[IllegalArgumentException](CoreModelParams(rmiWidth = bad))
      assert(w.getMessage.contains(s"rmiWidth = $bad"), w.getMessage)
    }
    assert(CoreModelParams(numArrays = 1, rmiWidth = 1).numArrays == 1)
  }
}
