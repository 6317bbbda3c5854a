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
    val counts = lider.inClusterRetrievers.map(_.size)
    assert(counts.sum == corpus.n)
    val allIds = lider.inClusterRetrievers.flatMap(_.globalIds).sorted
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
    // min(c0, c′) distinct clusters, every one once c0 ≥ c′: on the corpus
    // above (c′ = c), and on six distinct vectors (c′ < c, below).
    for ((l, vs) <- Seq(lider -> corpus.vectors, dup -> dupVectors); c0 <- 1 to l.numClusters + 3; i <- 0 until 6) {
      val t = l.targetClusters(vs(i), c0)
      assert(t.length == math.min(c0, l.numClusters) && t.distinct.length == t.length, s"c0 = $c0")
      assert(t.forall(cid => cid >= 0 && cid < l.numClusters))
    }
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
      cm.globalIds.foreach(id => memberOf(id.toInt) = cid)
    }
    lider.search(q, 10).foreach(s => assert(targets.contains(memberOf(s.id.toInt))))
  }

  private def bits(a: Array[Scored]) = a.map(s => (s.id, java.lang.Double.doubleToRawLongBits(s.score))).toSeq

  test("search equals the per-cluster composition of the public calls, with and without full cover") {
    val rnd = new scala.util.Random(5)
    val queries = Array.tabulate(25)(i =>
      repro.linalg.VecOps.normalized(corpus.vectors(i * 37).map(x => x + rnd.nextGaussian().toFloat * 0.2f)))
    val sizes = lider.inClusterRetrievers.map(_.size)
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

  test("a k for which r0·k exceeds Int.MaxValue is answered by full cover, not wrapped to one entry per array") {
    val k = Int.MaxValue / params.clusterCore.r0 + 1
    for (i <- 0 until 10; q = corpus.vectors(i * 53)) {
      val members = lider.targetClusters(q, params.c0).map(lider.inClusterRetrievers(_))
      val all = TopK.verify(q, members.flatMap(_.vectors), members.flatMap(_.globalIds), null, k)
      assert(all.length == members.map(_.size).sum)
      assert(bits(lider.search(q, k)) == bits(all), s"query $i")
    }
  }

  test("with an exhaustive budget (c0 = c, r0·k ≥ the largest cluster) search equals Flat, ids and score bits") {
    // c0 runs from c to c + 3, and one corpus in four repeats a few distinct
    // vectors, so that k-means leaves clusters empty and c0 exceeds c′.
    val gen = for {
      n <- Gen.choose(180, 600)
      dim <- Gen.choose(4, 24)
      c <- Gen.choose(1, 12)
      c0 <- Gen.choose(c, c + 3)
      distinct <- Gen.frequency(3 -> Gen.const(n), 1 -> Gen.choose(1, 12))
      k <- Gen.frequency(3 -> Gen.choose(1, 20), 1 -> Gen.choose(21, 120), 1 -> Gen.choose(n - 5, n + 5))
      seed <- Gen.choose(0L, 1000000L)
    } yield (n, dim, c, c0, distinct, k, seed)
    checkProp(Prop.forAll(gen) { case (n, dim, c, c0, distinct, k, seed) =>
      val data = LiderSpec.repeating(n, dim, distinct, seed)
      val p = LiderParams(c = c, c0 = c0,
        centroidCore = CoreModelParams(numArrays = 3, rmiWidth = 2, r0 = 1),
        clusterCore = CoreModelParams(numArrays = 3, rmiWidth = 2),
        kmeansSample = n, kmeansIters = 4, seed = seed)
      val built = Lider.build(data, ids(n), p)._1
      val exhaustive = withFullCover(built, k)
      val exact = new Flat(data, ids(n))
      val rnd = new scala.util.Random(seed)
      (0 until 6).forall { i =>
        val q = repro.linalg.VecOps.normalized(data(rnd.nextInt(n)).map(x => x + rnd.nextGaussian().toFloat * 0.1f * i))
        bits(exhaustive.search(q, k)) == bits(exact.search(q, k))
      }
    }, minSuccessful = 30)
  }

  private def ids(n: Int) = Array.tabulate(n)(_.toLong)

  /** `l` with the smallest r0 for which r0·k ≥ its largest cluster, so that
    * cluster sits on the full-cover boundary.
    */
  private def withFullCover(l: Lider, k: Int): Lider = {
    val r0 = (l.inClusterRetrievers.map(_.size).max + k - 1) / k
    new Lider(l.centroidsRetriever, l.inClusterRetrievers.map { cm =>
      new CoreModel(cm.vectors, cm.globalIds, cm.esklsh, cm.rmis, r0)
    }, l.params)
  }

  // Six distinct vectors, each 100 times: k-means with c = 12 leaves
  // clusters empty, and build drops them.
  private lazy val dupVectors = LiderSpec.repeating(600, 32, distinct = 6, seed = 5)
  private lazy val dupParams = params.copy(c = 12, c0 = 4, kmeansSample = 600)
  private lazy val dup = Lider.build(dupVectors, ids(600), dupParams)._1

  test("build drops the clusters k-means leaves empty: c′ < c clusters hold every id exactly once") {
    assert(dup.numClusters < dupParams.c && dup.numClusters > 0, s"c′ = ${dup.numClusters}")
    assert(dup.inClusterRetrievers.forall(_.size > 0))
    assert(dup.centroidsRetriever.globalIds.sorted.toSeq == (0L until dup.numClusters))
    assert(dup.inClusterRetrievers.flatMap(_.globalIds).sorted.toSeq == (0L until 600L))
  }

  test("with c0 ≥ c′ and r0·k ≥ the largest cluster, search over duplicate vectors equals Flat, ids and score bits") {
    val exact = new Flat(dupVectors, ids(600))
    val rnd = new scala.util.Random(3)
    for (c0 <- dup.numClusters to dup.numClusters + 3; k <- Seq(1, 10, 150)) {
      val exhaustive = withFullCover(new Lider(dup.centroidsRetriever, dup.inClusterRetrievers, dupParams.copy(c0 = c0)), k)
      for (i <- 0 until 6) {
        val q = repro.linalg.VecOps.normalized(dupVectors(i).map(x => x + rnd.nextGaussian().toFloat * 0.1f))
        assert(bits(exhaustive.search(q, k)) == bits(exact.search(q, k)), s"c0 = $c0, k = $k")
      }
    }
  }

  test("the constructor rejects a missing cluster and centroid ids other than 0 until c, naming the cluster") {
    val c = lider.numClusters
    val missing = lider.inClusterRetrievers.clone()
    missing(3) = null
    val e = intercept[IllegalArgumentException](new Lider(lider.centroidsRetriever, missing, params))
    assert(e.getMessage.contains("cluster 3 has no in-cluster retriever"), e.getMessage)
    val centroids = lider.centroidsRetriever.vectors
    def withIds(ids: Array[Long]) = {
      val retriever = CoreModel.build(Array.tabulate(ids.length)(i => centroids(i % c)), ids, params.centroidCore)
      intercept[IllegalArgumentException](new Lider(retriever, lider.inClusterRetrievers, params)).getMessage
    }
    val outOfRange = Array.tabulate(c)(_.toLong); outOfRange(7) = c
    assert(withIds(outOfRange).contains("cluster 7 has 0 centroids, not one"))
    val twice = Array.tabulate(c)(_.toLong); twice(7) = 2
    assert(withIds(twice).contains("cluster 2 has 2 centroids, not one"))
    assert(withIds(Array.tabulate(c - 1)(_.toLong)).contains(s"cluster ${c - 1} has 0 centroids, not one"))
    assert(withIds(Array.tabulate(c + 1)(_.toLong)).contains(s"${c + 1} centroids for $c clusters"))
  }

  test("build rejects a corpus vector of another length or with a non-finite component, naming it; zero vectors pass") {
    for (bad <- Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity)) {
      val vs = corpus.vectors.clone()
      vs(321) = vs(321).updated(17, bad)
      val e = intercept[IllegalArgumentException](Lider.build(vs, corpus.ids, params))
      assert(e.getMessage.contains(s"corpus vector 321 component 17 is $bad"), e.getMessage)
      val ec = intercept[IllegalArgumentException](CoreModel.build(vs, corpus.ids, params.clusterCore))
      assert(ec.getMessage.contains(s"corpus vector 321 component 17 is $bad"), ec.getMessage)
    }
    val vs = corpus.vectors.clone()
    vs(654) = vs(654).take(31)
    val e = intercept[IllegalArgumentException](Lider.build(vs, corpus.ids, params))
    assert(e.getMessage.contains("corpus vector 654 has 31 dimensions, vector 0 has 32"), e.getMessage)
    val ec = intercept[IllegalArgumentException](CoreModel.build(vs, corpus.ids, params.clusterCore))
    assert(ec.getMessage.contains("corpus vector 654 has 31 dimensions, vector 0 has 32"), ec.getMessage)
    val zeros = corpus.vectors.clone()
    zeros(0) = new Array[Float](32); zeros(999) = new Array[Float](32)
    val withZeros = Lider.build(zeros, corpus.ids, params)._1
    assert(withZeros.inClusterRetrievers.map(_.size).sum == corpus.n)
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
    val cid = clusters.indices.filter(c => clusters(c).esklsh.keyLen == clusters.map(_.esklsh.keyLen).min).last
    val own = clusters(cid)
    clusters(cid) = CoreModel.build(own.vectors, own.globalIds, params.clusterCore.copy(seed = 99))
    val e = intercept[IllegalArgumentException](new Lider(lider.centroidsRetriever, clusters, params))
    assert(e.getMessage.contains(s"cluster $cid's hyperplanes"), e.getMessage)
  }

  test("clusters whose planes are equal copies, as a loaded index's are, are accepted") {
    val copies = lider.inClusterRetrievers.map { cm =>
      val lsh = repro.lsh.RandomHyperplaneLSH.fromPlanes(cm.esklsh.lsh.planes.map(_.map(_.clone)))
      new CoreModel(cm.vectors, cm.globalIds, new repro.esklsh.ESKLSH(lsh, cm.esklsh.arrays, cm.esklsh.b),
        cm.rmis, cm.r0)
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

object LiderSpec {

  /** `n` vectors cycling through the first `distinct` of
    * `RetrievalData.corpus(n, dim, seed)`: with fewer distinct vectors than
    * clusters, k-means leaves clusters empty.
    */
  def repeating(n: Int, dim: Int, distinct: Int, seed: Long): Array[Array[Float]] = {
    val base = RetrievalData.corpus(n, dim, seed).vectors
    Array.tabulate(n)(i => base(i % distinct))
  }
}
