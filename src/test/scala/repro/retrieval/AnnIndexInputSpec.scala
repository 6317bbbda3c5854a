package repro.retrieval

import org.scalatest.funsuite.AnyFunSuite

/** Bad queries fail loudly at the API edge, in every index. */
class AnnIndexInputSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1000, 32, seed = 41)

  test("every AnnIndex and Lider.search reject k <= 0 and a query of the wrong dimension") {
    val q = corpus.vectors(3)
    val indexes = Scaled.Methods.map(m => Scaled.buildIndex(m, corpus, "MS-100k"))
    val lider = indexes.collectFirst { case l: LiderIndex => l.lider }.get
    val searches = indexes.map(ix => ix.name -> ((v: Array[Float], k: Int) => ix.search(v, k))) :+
      ("Lider.search" -> ((v: Array[Float], k: Int) => lider.search(v, k)))
    for ((name, search) <- searches) {
      assert(search(q, 10).length == 10, name)
      for (k <- Seq(0, -1))
        withClue(s"$name, k = $k: ")(assertThrows[IllegalArgumentException](search(q, k)))
      for (bad <- Seq(q.take(q.length - 1), q :+ 0.5f))
        withClue(s"$name, dim ${bad.length}: ")(assertThrows[IllegalArgumentException](search(bad, 10)))
    }
  }
}
