package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.baselines.Flat
import repro.retrieval.{Metrics, RetrievalData}

class LiderSpec extends AnyFunSuite with PropertySupport {

  private lazy val corpus = RetrievalData.corpus(2000, 32, seed = 77)
  private lazy val params = LiderParams(
    c = 20, c0 = 5,
    centroidCore = CoreModelParams(numArrays = 6, rmiWidth = 4, r0 = 3),
    clusterCore = CoreModelParams(numArrays = 6, rmiWidth = 4, r0 = 3),
    kmeansSample = 2000, kmeansIters = 8)
  private lazy val (lider, stats) = Lider.build(corpus.vectors, corpus.ids, params)
  private lazy val flat = new Flat(corpus.vectors, corpus.ids)

  test("build produces the requested number of clusters") {
    assert(lider.numClusters == 20)
    assert(lider.centroidsRetriever.size == 20)
  }

  test("every corpus vector lives in exactly one in-cluster retriever") {
    val counts = lider.inClusterRetrievers.filter(_ != null).map(_.size)
    assert(counts.sum == corpus.n)
    val allIds = lider.inClusterRetrievers.filter(_ != null).flatMap(_.globalIds).sorted
    assert(allIds.toSeq == corpus.ids.toSeq)
  }

  test("centroids retriever indexes the centroids with cluster-id labels") {
    assert(lider.centroidsRetriever.size == 20)
    assert(lider.centroidsRetriever.globalIds.sorted.toSeq == (0L until 20L))
  }

  test("build stats report positive stage times") {
    assert(stats.clusteringNanos > 0)
    assert(stats.centroidRetrieverNanos > 0)
    assert(stats.inClusterNanos > 0)
  }

  test("targetClusters returns at most c0 existing clusters") {
    val t = lider.targetClusters(corpus.vectors(0), 5)
    assert(t.length <= 5)
    assert(t.forall(cid => lider.inClusterRetrievers(cid) != null))
  }

  test("search returns k sorted results") {
    val got = lider.search(corpus.vectors(5), 10)
    assert(got.length == 10)
    assert(got.sliding(2).forall(p => p(0).score >= p(1).score))
  }

  test("self-retrieval: a corpus vector finds itself at rank 1 usually") {
    var hits = 0
    for (i <- 0 until 50) {
      val got = lider.search(corpus.vectors(i * 13), 5)
      if (got.nonEmpty && got(0).id == i * 13) hits += 1
    }
    assert(hits >= 45, s"self-top $hits / 50")
  }

  test("recall@10 vs Flat is reasonable on clusterable data") {
    val recalls = (0 until 40).map { i =>
      val q = corpus.vectors(i * 17 + 1)
      Metrics.recallAt(lider.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }
    val mean = recalls.sum / recalls.length
    assert(mean > 0.5, s"mean recall = $mean")
  }

  test("raising c0 can only widen the searched space (recall non-decreasing on average)") {
    val qs = (0 until 30).map(i => corpus.vectors(i * 11 + 3))
    def meanRecall(c0: Int): Double = {
      val withC0 = new Lider(lider.centroidsRetriever, lider.inClusterRetrievers, params.copy(c0 = c0))
      qs.map(q => Metrics.recallAt(withC0.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)).sum / qs.size
    }
    assert(meanRecall(10) >= meanRecall(1) - 1e-9)
  }

  test("search merges are deterministic across repeated calls") {
    val q = corpus.vectors(99)
    assert(lider.search(q, 10).toSeq == lider.search(q, 10).toSeq)
  }

  test("results come only from target clusters") {
    val q = corpus.vectors(123)
    val targets = lider.targetClusters(q, params.c0).toSet
    val memberOf = new Array[Int](corpus.n)
    lider.inClusterRetrievers.zipWithIndex.foreach { case (cm, cid) =>
      if (cm != null) cm.globalIds.foreach(id => memberOf(id.toInt) = cid)
    }
    lider.search(q, 10).foreach(s => assert(targets.contains(memberOf(s.id.toInt))))
  }

  private def bits(a: Array[Scored]) = a.map(s => (s.id, java.lang.Double.doubleToRawLongBits(s.score))).toSeq

  test("search equals the per-cluster composition of the public calls, with and without full cover") {
    val rnd = new scala.util.Random(5)
    val queries = Array.tabulate(25)(i =>
      repro.linalg.VecOps.normalized(corpus.vectors(i * 37).map(x => x + rnd.nextGaussian().toFloat * 0.2f)))
    val sizes = lider.inClusterRetrievers.filter(_ != null).map(_.size)
    var covered, expanded = 0
    // r0·k against cluster sizes of about 100: k = 1 and 10 expand every
    // cluster, k = 40 covers some, k = 200 covers all.
    for (k <- Seq(1, 10, sizes.min / 3 + 1, 40, sizes.max / 3 + 1, 200); q <- queries) {
      val perCluster = lider.targetClusters(q, params.c0).map { cid =>
        val cm = lider.inClusterRetrievers(cid)
        val range = math.max(1, cm.r0 * k)
        if (range >= cm.size) covered += 1 else expanded += 1
        val keys = cm.esklsh.hashQuery(q)
        val starts = Array.tabulate(cm.esklsh.numArrays)(h => cm.predictStart(h, keys(h)))
        cm.verify(q, cm.esklsh.expandAll(keys, starts, range), k)
      }
      assert(bits(lider.search(q, k)) == bits(TopK.mergeSorted(perCluster, k)), s"k = $k")
    }
    assert(covered > 0 && expanded > 0, s"covered $covered, expanded $expanded")
  }

  test("with an exhaustive budget (c0 = c, r0·k ≥ the largest cluster) search equals Flat, ids and score bits") {
    val gen = for {
      n <- Gen.choose(180, 600)
      dim <- Gen.choose(4, 24)
      c <- Gen.choose(1, 12)
      k <- Gen.frequency(3 -> Gen.choose(1, 20), 1 -> Gen.choose(21, 120), 1 -> Gen.choose(n - 5, n + 5))
      seed <- Gen.choose(0L, 1000000L)
    } yield (n, dim, c, k, seed)
    checkProp(Prop.forAll(gen) { case (n, dim, c, k, seed) =>
      val data = RetrievalData.corpus(n, dim, seed)
      val p = LiderParams(c = c, c0 = c,
        centroidCore = CoreModelParams(numArrays = 3, rmiWidth = 2, r0 = 1),
        clusterCore = CoreModelParams(numArrays = 3, rmiWidth = 2),
        kmeansSample = n, kmeansIters = 4, seed = seed)
      val built = Lider.build(data.vectors, data.ids, p)._1
      // The smallest r0 with r0·k ≥ the largest cluster, so that cluster
      // sits on the full-cover boundary.
      val largest = built.inClusterRetrievers.filter(_ != null).map(_.size).max
      val r0 = (largest + k - 1) / k
      val exhaustive = new Lider(built.centroidsRetriever, built.inClusterRetrievers.map { cm =>
        if (cm == null) null
        else new CoreModel(cm.vectors, cm.globalIds, cm.esklsh, cm.rescalers, cm.rmis, r0, cm.rescaleKeys)
      }, p)
      val exact = new Flat(data.vectors, data.ids)
      val rnd = new scala.util.Random(seed)
      (0 until 6).forall { i =>
        val q = repro.linalg.VecOps.normalized(
          data.vectors(rnd.nextInt(n)).map(x => x + rnd.nextGaussian().toFloat * 0.1f * i))
        bits(exhaustive.search(q, k)) == bits(exact.search(q, k))
      }
    }, minSuccessful = 30)
  }

  test("LiderParams rejects c <= 0 and c0 <= 0 when constructed, naming the field") {
    for (bad <- Seq(0, -1, Int.MinValue)) {
      val ec = intercept[IllegalArgumentException](params.copy(c = bad))
      assert(ec.getMessage.contains(s"LiderParams.c (clusters) must be positive, got $bad"), ec.getMessage)
      val ec0 = intercept[IllegalArgumentException](params.copy(c0 = bad))
      assert(ec0.getMessage.contains(s"LiderParams.c0 (target clusters per query) must be positive, got $bad"),
        ec0.getMessage)
    }
  }

  test("build rejects an empty corpus") {
    val e = intercept[IllegalArgumentException](Lider.build(Array.empty[Array[Float]], Array.empty[Long], params))
    assert(e.getMessage.contains("non-empty corpus"), e.getMessage)
  }

  test("build rejects duplicate global ids, naming the first repeat") {
    val ids = corpus.ids.clone()
    ids(700) = ids(30); ids(900) = ids(10)
    val e = intercept[IllegalArgumentException](Lider.build(corpus.vectors, ids, params))
    assert(e.getMessage.contains(s"global id ${ids(30)} appears twice"), e.getMessage)
  }

  test("queries searched concurrently match a sequential loop, ids and score bits") {
    // Each search forks over its target clusters inside a parallel stream
    // that already occupies the common pool: nested fan-out.
    val queries = Array.tabulate(64)(i => corpus.vectors(i * 29 + 7))
    for (k <- Seq(1, 10, 200)) {
      val sequential = queries.map(q => bits(lider.search(q, k)))
      val concurrent = repro.linalg.Parallel.tabulate(queries.length)(i => bits(lider.search(queries(i), k)))
      assert(concurrent.toSeq == sequential.toSeq, s"k = $k")
    }
  }

  test("a cluster whose hyperplanes are not a prefix of the shared set is rejected by name") {
    val clusters = lider.inClusterRetrievers.clone()
    // The last cluster of the shortest key length is never the one the
    // others are checked against.
    val present = clusters.indices.filter(clusters(_) != null)
    val cid = present.filter(c => clusters(c).esklsh.keyLen == present.map(clusters(_).esklsh.keyLen).min).last
    val own = clusters(cid)
    clusters(cid) = CoreModel.build(own.vectors, own.globalIds, params.clusterCore.copy(seed = 99))
    val e = intercept[IllegalArgumentException](new Lider(lider.centroidsRetriever, clusters, params))
    assert(e.getMessage.contains(s"cluster $cid's hyperplanes"), e.getMessage)
  }

  test("clusters whose planes are equal copies, as a loaded index's are, are accepted") {
    val copies = lider.inClusterRetrievers.map { cm =>
      if (cm == null) null
      else {
        val lsh = repro.lsh.RandomHyperplaneLSH.fromPlanes(cm.esklsh.lsh.planes.map(_.map(_.clone)))
        new CoreModel(cm.vectors, cm.globalIds, new repro.esklsh.ESKLSH(lsh, cm.esklsh.arrays, cm.esklsh.b),
          cm.rescalers, cm.rmis, cm.r0, cm.rescaleKeys)
      }
    }
    val loaded = new Lider(lider.centroidsRetriever, copies, params)
    for (i <- 0 until 10; q = corpus.vectors(i * 41))
      assert(bits(loaded.search(q, 10)) == bits(lider.search(q, 10)))
  }

  test("recommendedC targets ~200-vector clusters with a floor") {
    assert(Lider.recommendedC(100) == 10)
    assert(Lider.recommendedC(40_000) == 200)
  }

  test("recommendedC0 is c/50 floored at 3") {
    assert(Lider.recommendedC0(20) == 3)
    assert(Lider.recommendedC0(1000) == 20)
  }
}
