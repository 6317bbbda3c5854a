package repro.datasource

import java.io.File
import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CoreModel, CoreModelParams, IndexFootprint, Lider, LiderParams, LiderSpec, Scored}
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

  /** Bytes of `cm`'s model record, by the layout: a header of seven ints,
    * vectors, ids, sorted arrays and RMIs, and no planes, re-scalers or
    * RMI n.
    */
  private def modelRecordBytes(cm: CoreModel): Long =
    7 * 4 + cm.size.toLong * (cm.esklsh.lsh.dim * 4 + 8) + cm.esklsh.arrays.map(_.sizeBytes).sum +
      cm.rmis.map(r => 16 + 4 + 16L * r.leaves.length).sum

  test("every loaded model derives the built model's re-scalers, and each RMI's n is the model's size") {
    for (((lider, dir), name) <- Seq(plain -> "plain", repeating -> "repeating")) {
      val loaded = IndexStore.load(dir)
      val pairs = (loaded.centroidsRetriever -> lider.centroidsRetriever) +:
        loaded.inClusterRetrievers.toSeq.zip(lider.inClusterRetrievers)
      for (((got, built), i) <- pairs.zipWithIndex) {
        assert(got.rescalers.toSeq == built.rescalers.toSeq, s"$name, model $i")
        for (h <- got.rmis.indices) assert(got.rmis(h).n == got.size, s"$name, model $i, array $h")
      }
    }
  }

  test("a loaded index shares one in-cluster plane set by reference, and its footprint is the built one's") {
    for (((lider, dir), name) <- Seq(plain -> "plain", repeating -> "repeating")) {
      val loaded = IndexStore.load(dir)
      val set = loaded.clusterLsh
      assert(set.keyLen == lider.clusterLsh.keyLen, name)
      for (cm <- loaded.inClusterRetrievers; h <- 0 until set.numKeys; i <- 0 until cm.esklsh.keyLen)
        assert(cm.esklsh.lsh.planes(h)(i) eq set.planes(h)(i), s"$name, function $h, plane $i")
      assert(IndexFootprint.liderBytes(loaded) == IndexFootprint.liderBytes(lider), name)
    }
  }

  test("the cluster files hold no planes; the directory holds the in-cluster set once") {
    for (((lider, dir), name) <- Seq(plain -> "plain", repeating -> "repeating")) {
      assert(new File(dir).list().sorted.toSeq == Seq("centroid_model.bin", "cluster_planes.bin", "clusters", "meta.txt"), name)
      for (cid <- 0 until lider.numClusters)
        assert(new File(dir, s"clusters/$cid.bin").length == modelRecordBytes(lider.inClusterRetrievers(cid)), s"$name, cluster $cid")
      val set = lider.clusterLsh
      assert(set.keyLen == lider.inClusterRetrievers.map(_.esklsh.keyLen).max, name)
      assert(new File(dir, "cluster_planes.bin").length == 20 + 4L * set.numKeys * set.keyLen * set.dim, name)
      val centroids = lider.centroidsRetriever.esklsh.lsh
      assert(new File(dir, "centroid_model.bin").length ==
        20 + 4L * centroids.numKeys * centroids.keyLen * centroids.dim + modelRecordBytes(lider.centroidsRetriever), name)
    }
  }

  test("a missing or cut cluster_planes.bin fails naming the file or with an EOFException, never an index") {
    val (_, dir) = saved(RetrievalData.corpus(900, 16, seed = 31).vectors)
    val planes = new File(dir, "cluster_planes.bin")
    val bytes = Files.readAllBytes(planes.toPath)
    for (cut <- Seq(0, 10, 20, bytes.length / 2, bytes.length - 1)) {
      Files.write(planes.toPath, bytes.take(cut))
      intercept[java.io.EOFException](IndexStore.load(dir))
      intercept[java.io.EOFException](IndexStore.loadClusterModel(dir, 0))
    }
    assert(planes.delete())
    for (load <- Seq(() => IndexStore.load(dir), () => IndexStore.loadClusterModel(dir, 0))) {
      val e = intercept[java.io.FileNotFoundException](load())
      assert(e.getMessage.contains(planes.getPath), e.getMessage)
    }
  }

  test("a directory of version-2 files asks for a rebuild") {
    val (_, dir) = saved(RetrievalData.corpus(900, 16, seed = 37).vectors)
    for (file <- Seq("clusters/3.bin", "cluster_planes.bin", "centroid_model.bin")) {
      val f = new File(dir, file).toPath
      val bytes = Files.readAllBytes(f)
      java.nio.ByteBuffer.wrap(bytes).putInt(4, 2)
      Files.write(f, bytes)
      val e = intercept[IllegalArgumentException](IndexStore.load(dir))
      assert(e.getMessage.contains("version 2") && e.getMessage.contains("rebuild the index"), s"$file: ${e.getMessage}")
    }
  }

  test("loading a directory that misses a cluster file fails, naming the file") {
    val (_, dir) = saved(RetrievalData.corpus(900, 16, seed = 29).vectors)
    val gone = new File(dir, "clusters/5.bin")
    assert(gone.delete())
    val e = intercept[java.io.FileNotFoundException](IndexStore.load(dir))
    assert(e.getMessage.contains(gone.getPath), e.getMessage)
  }
}
