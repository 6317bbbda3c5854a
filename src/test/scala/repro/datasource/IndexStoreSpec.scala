package repro.datasource

import java.io.File
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CoreModelParams, Lider, LiderParams, LiderSpec, Scored}
import repro.retrieval.RetrievalData

class IndexStoreSpec extends AnyFunSuite {

  private val params = LiderParams(
    c = 12, c0 = 4,
    centroidCore = CoreModelParams(numArrays = 5, rmiWidth = 4),
    clusterCore = CoreModelParams(numArrays = 5, rmiWidth = 4),
    kmeansSample = 900)

  private def bits(a: Array[Scored]) = a.map(s => (s.id, java.lang.Double.doubleToRawLongBits(s.score))).toSeq

  private def saved(vectors: Array[Array[Float]]): (Lider, String) = {
    val lider = Lider.build(vectors, Array.tabulate(vectors.length)(_.toLong), params)._1
    val dir = Files.createTempDirectory("lider-store").toString
    IndexStore.save(lider, dir)
    (lider, dir)
  }

  // A corpus whose k-means clusters all have members, and one of six
  // distinct vectors repeated, whose empty clusters build drops.
  private lazy val plain = saved(RetrievalData.corpus(900, 16, seed = 23).vectors)
  private lazy val repeating = saved(LiderSpec.repeating(900, 16, distinct = 6, seed = 23))

  test("save writes one file per cluster, and load gives Lider.search's ids and score bits") {
    for (((lider, dir), name) <- Seq(plain -> "plain", repeating -> "repeating")) {
      val files = new File(dir, "clusters").list().sorted.toSeq
      assert(files == (0 until lider.numClusters).map(cid => s"$cid.bin").sorted, name)
      val loaded = IndexStore.load(dir)
      assert(loaded.numClusters == lider.numClusters && loaded.params.c0 == params.c0, name)
      val queries = lider.inClusterRetrievers.flatMap(_.vectors.take(3))
      for (k <- Seq(1, 10, 200); q <- queries)
        assert(bits(loaded.search(q, k)) == bits(lider.search(q, k)), s"$name, k = $k")
    }
    assert(repeating._1.numClusters < params.c && plain._1.numClusters == params.c)
  }

  test("loading a directory that misses a cluster file fails, naming the file") {
    val (_, dir) = saved(RetrievalData.corpus(900, 16, seed = 29).vectors)
    val gone = new File(dir, "clusters/5.bin")
    assert(gone.delete())
    val e = intercept[java.io.FileNotFoundException](IndexStore.load(dir))
    assert(e.getMessage.contains(gone.getPath), e.getMessage)
  }
}
