package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.SKLSH
import repro.esklsh.ESKLSH
import repro.retrieval.RetrievalData

class IndexFootprintSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1200, 32, seed = 9)

  test("esklshBytes counts packed arrays plus hyperplanes") {
    val e = ESKLSH.build(corpus.vectors, numArrays = 4, keyLen = 10, b = 3, seed = 1)
    val arrays = e.arrays.map(_.sizeBytes).sum
    val planes = 4L * 10 * 32 * 4
    assert(IndexFootprint.esklshBytes(e) == arrays + planes)
    assert(IndexFootprint.esklshBytes(e, includePlanes = false) == arrays)
    assert(IndexFootprint.planesBytes(e.lsh) == planes)
  }

  test("packed key storage is far below 8 bytes per entry for short keys") {
    val e = ESKLSH.build(corpus.vectors, numArrays = 1, keyLen = 8, b = 3, seed = 1)
    // 8-bit key + 11-bit id (1,200 entries) ≈ 2.4B per entry (vs 12B
    // unpacked).
    val perEntry = e.arrays(0).sizeBytes.toDouble / corpus.n
    assert(perEntry < 2.5, s"perEntry=$perEntry")
  }

  test("core model adds RMI, rescaler and id-map bytes on top of ESK-LSH") {
    val cm = CoreModel.build(corpus.vectors, corpus.ids, CoreModelParams(numArrays = 4, rmiWidth = 5))
    val esk = IndexFootprint.esklshBytes(cm.esklsh)
    val got = IndexFootprint.coreModelBytes(cm)
    val rmi = 4L * ((1 + 5) * 16 + 8)
    val rescalers = 4L * 24
    val idMap = corpus.n.toLong * 8
    assert(got == esk + rmi + rescalers + idMap)
  }

  test("more arrays cost proportionally more array memory") {
    val small = ESKLSH.build(corpus.vectors, 4, 10, 3, 1)
    val big = ESKLSH.build(corpus.vectors, 8, 10, 3, 1)
    val smallArrays = IndexFootprint.esklshBytes(small, includePlanes = false)
    val bigArrays = IndexFootprint.esklshBytes(big, includePlanes = false)
    assert(bigArrays == 2 * smallArrays)
  }

  test("LIDER footprint is far below a flat SK-LSH with more arrays (Table 5 shape)") {
    val (lider, _) = Lider.build(corpus.vectors, corpus.ids,
      LiderParams(c = 12, c0 = 3,
        centroidCore = CoreModelParams(numArrays = 10, rmiWidth = 4),
        clusterCore = CoreModelParams(numArrays = 10, rmiWidth = 4),
        kmeansSample = 1200))
    val sklsh = SKLSH.build(corpus.vectors, corpus.ids, numArrays = 24, keyLen = ESKLSH.keyLenFor(corpus.n))
    val liderB = IndexFootprint.liderBytes(lider)
    val sklshB = IndexFootprint.esklshBytes(sklsh.esklsh)
    assert(liderB < sklshB, s"lider=$liderB sklsh=$sklshB")
  }

  test("liderBytes counts the in-cluster hyperplanes once (shared planes)") {
    val (lider, _) = Lider.build(corpus.vectors, corpus.ids,
      LiderParams(c = 6, c0 = 2, kmeansSample = 1200))
    val irs = lider.inClusterRetrievers
    val manual = lider.centroidsRetriever.size.toLong * 32 * 4 +
      IndexFootprint.coreModelBytes(lider.centroidsRetriever) +
      irs.map(IndexFootprint.coreModelBytes(_, includePlanes = false)).sum +
      irs.map(cm => IndexFootprint.planesBytes(cm.esklsh.lsh)).max
    assert(IndexFootprint.liderBytes(lider) == manual)
  }

  test("in-cluster retrievers really share their hyperplane row arrays") {
    val (lider, _) = Lider.build(corpus.vectors, corpus.ids,
      LiderParams(c = 6, c0 = 2, kmeansSample = 1200))
    val irs = lider.inClusterRetrievers
    assert(irs.length >= 2)
    val a = irs(0).esklsh.lsh.planes(0)(0)
    val b = irs(1).esklsh.lsh.planes(0)(0)
    assert(a eq b, "first hyperplane of function 0 must be the same array instance")
  }
}
