package repro.retrieval

import org.scalatest.funsuite.AnyFunSuite

/** Bad queries fail loudly at the API edge, in every index. */
class AnnIndexInputSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1000, 32, seed = 41)

  /** Every AnnIndex, then `Lider.search` and one in-cluster `CoreModel.search`. */
  private lazy val searches: Seq[(String, (Array[Float], Int) => Array[repro.core.Scored])] = {
    val indexes = Scaled.Methods.map(m => Scaled.buildIndex(m, corpus, "MS-100k"))
    val lider = indexes.collectFirst { case l: repro.core.Lider => l }.get
    val cluster = lider.inClusterRetrievers.maxBy(_.size)
    indexes.map(ix => ix.name -> ((v: Array[Float], k: Int) => ix.search(v, k))) ++ Seq(
      "Lider.search" -> ((v: Array[Float], k: Int) => lider.search(v, k)),
      "CoreModel.search" -> ((v: Array[Float], k: Int) => cluster.search(v, k)))
  }

  test("every AnnIndex and Lider.search reject k <= 0 and a query of the wrong dimension") {
    val q = corpus.vectors(3)
    for ((name, search) <- searches) {
      assert(search(q, 10).length == 10, name)
      for (k <- Seq(0, -1))
        withClue(s"$name, k = $k: ")(assertThrows[IllegalArgumentException](search(q, k)))
      for (bad <- Seq(q.take(q.length - 1), q :+ 0.5f))
        withClue(s"$name, dim ${bad.length}: ")(assertThrows[IllegalArgumentException](search(bad, 10)))
    }
  }

  test("every search rejects non-finite and zero queries") {
    // Every AnnIndex, Lider.search and CoreModel.search: a NaN or infinite
    // component at either end, and the all-zero query (no cosine).
    val q = corpus.vectors(3)
    val nonFinite = for (x <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity); at <- Seq(0, q.length - 1))
      yield s"$x at $at" -> q.updated(at, x)
    for ((name, search) <- searches; (what, bad) <- nonFinite :+ ("zero" -> new Array[Float](q.length)))
      withClue(s"$name, $what: ")(assertThrows[IllegalArgumentException](search(bad, 10)))
  }
}
