package repro.baselines

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertySupport
import repro.kmeans.KMeansModel
import repro.linalg.VecOps
import repro.retrieval.{Metrics, RetrievalData}
import scala.util.Random

class PQSpec extends AnyFunSuite with PropertySupport {

  private lazy val corpus = RetrievalData.corpus(1000, 32, seed = 21)
  private lazy val flat = new Flat(corpus.vectors, corpus.ids)

  test("ProductQuantizer encode/decode round-trips with bounded error") {
    val pq = ProductQuantizer.fit(corpus.vectors, m = 4, bits = 6)
    val err = pq.reconstructionError(corpus.vectors.take(200))
    assert(err < 0.5, s"mse=$err") // unit vectors: mse ≪ 2 means codes carry signal
  }

  test("more bits reduce reconstruction error") {
    val lo = ProductQuantizer.fit(corpus.vectors, 4, bits = 2)
    val hi = ProductQuantizer.fit(corpus.vectors, 4, bits = 6)
    assert(hi.reconstructionError(corpus.vectors.take(200)) <
      lo.reconstructionError(corpus.vectors.take(200)))
  }

  test("more segments reduce reconstruction error") {
    val lo = ProductQuantizer.fit(corpus.vectors, 2, bits = 4)
    val hi = ProductQuantizer.fit(corpus.vectors, 8, bits = 4)
    assert(hi.reconstructionError(corpus.vectors.take(200)) <
      lo.reconstructionError(corpus.vectors.take(200)))
  }

  test("adc with IP tables equals dot(q, decode(codes))") {
    val pq = ProductQuantizer.fit(corpus.vectors, 4, 4)
    val q = corpus.vectors(3)
    val lut = pq.lutIP(q)
    for (i <- 0 until 20) {
      val codes = pq.encode(corpus.vectors(i))
      val viaLut = pq.adc(lut, codes, 0)
      val direct = VecOps.dot(q, pq.decode(codes))
      assert(math.abs(viaLut - direct) < 1e-4)
    }
  }

  test("adc with L2 tables equals sqDist(q, decode(codes))") {
    val pq = ProductQuantizer.fit(corpus.vectors, 4, 4)
    val q = corpus.vectors(4)
    val lut = pq.lutL2(q)
    for (i <- 0 until 20) {
      val codes = pq.encode(corpus.vectors(i))
      assert(math.abs(pq.adc(lut, codes, 0) - VecOps.sqDist(q, pq.decode(codes))) < 1e-3)
    }
  }

  /** The per-codeword loops that `encode`, `lutIP` and `lutL2` replaced,
    * kept as the reference.
    */
  private object Reference {
    def segment(v: Array[Float], s: Int, segDim: Int): Array[Float] = v.slice(s * segDim, (s + 1) * segDim)

    def encode(cbs: Array[Array[Array[Float]]], v: Array[Float]): Array[Byte] = {
      val segDim = cbs(0)(0).length
      Array.tabulate(cbs.length) { s =>
        val seg = segment(v, s, segDim)
        var best = 0; var bestD = Double.MaxValue
        for (c <- cbs(s).indices) {
          val d = VecOps.sqDist(seg, cbs(s)(c))
          if (d < bestD) { bestD = d; best = c }
        }
        best.toByte
      }
    }

    def lut(cbs: Array[Array[Array[Float]]], q: Array[Float], f: (Array[Float], Array[Float]) => Double): Array[Array[Float]] = {
      val segDim = cbs(0)(0).length
      Array.tabulate(cbs.length)(s => cbs(s).map(cw => f(segment(q, s, segDim), cw).toFloat))
    }
  }

  test("encode and the ADC tables equal the per-codeword loops, bit for bit") {
    // Codewords and queries on a coarse integer grid, with repeated
    // codewords, so many distances tie and the first index must win.
    val gen = for {
      m <- Gen.choose(1, 4)
      segDim <- Gen.oneOf(1, 2, 3, 5, 8)
      ksub <- Gen.oneOf(Gen.choose(1, 9), Gen.choose(10, 255), Gen.const(256))
      grid <- Gen.oneOf(true, false)
      seed <- Gen.choose(0L, 1000L)
    } yield (m, segDim, ksub, grid, seed)
    checkProp(Prop.forAllNoShrink(gen) { case (m, segDim, ksub, grid, seed) =>
      val rnd = new Random(seed)
      def point(len: Int) = Array.fill(len)(if (grid) (rnd.nextInt(5) - 2).toFloat else rnd.nextGaussian().toFloat)
      val cbs = Array.fill(m) {
        val cb = new Array[Array[Float]](ksub)
        for (c <- 0 until ksub) cb(c) = if (c > 0 && rnd.nextInt(4) == 0) cb(rnd.nextInt(c)).clone() else point(segDim)
        cb
      }
      val pq = new ProductQuantizer(cbs.map(KMeansModel(_)))
      def bits(lut: Array[Array[Float]]) = lut.toSeq.map(_.toSeq.map(java.lang.Float.floatToRawIntBits))
      Seq.fill(12)(point(m * segDim)).forall { v =>
        pq.encode(v).toSeq == Reference.encode(cbs, v).toSeq &&
          bits(pq.lutIP(v)) == bits(Reference.lut(cbs, v, VecOps.dot)) &&
          bits(pq.lutL2(v)) == bits(Reference.lut(cbs, v, VecOps.sqDist))
      }
    }, minSuccessful = 200)
  }

  test("dim not divisible by m is rejected") {
    intercept[IllegalArgumentException](ProductQuantizer.fit(corpus.vectors, 5, 4))
  }

  test("PQIndex search returns k sorted results with decent recall") {
    val idx = PQIndex.build(corpus.vectors, corpus.ids, m = 8, bits = 6)
    val recalls = (0 until 30).map { i =>
      val q = corpus.vectors(i * 7)
      Metrics.recallAt(idx.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }
    val mean = recalls.sum / recalls.length
    assert(mean > 0.3, s"recall=$mean")
    val got = idx.search(corpus.vectors(0), 10)
    assert(got.length == 10 && got.sliding(2).forall(p => p(0).score >= p(1).score))
  }

  test("OPQ rotation is orthogonal") {
    val opq = OPQIndex.build(corpus.vectors, corpus.ids, m = 4, bits = 4, optIters = 3, trainSample = 400)
    val r = opq.rotation
    assert((r.t * r).maxAbsDiff(repro.linalg.Mat.eye(32)) < 1e-6)
  }

  test("OPQ achieves no worse reconstruction than PQ (paper: OPQ > PQ quality)") {
    // Train both on the full corpus so the comparison shares data; OPQ's
    // iteration 0 is the identity rotation, so it can only improve on PQ.
    val pq = ProductQuantizer.fit(corpus.vectors, 4, 4, iters = 8, seed = 1)
    val opq = OPQIndex.build(corpus.vectors, corpus.ids, 4, 4, optIters = 5,
      trainSample = corpus.n, seed = 1)
    val pqErr = pq.reconstructionError(corpus.vectors)
    val rotated = corpus.vectors.map(opq.rotation.applyTo)
    val opqErr = opq.pq.reconstructionError(rotated)
    assert(opqErr <= pqErr * 1.02, s"opq=$opqErr pq=$pqErr")
  }

  test("OPQ search works end to end") {
    val opq = OPQIndex.build(corpus.vectors, corpus.ids, 8, 6, optIters = 3, trainSample = 500)
    val recalls = (0 until 20).map { i =>
      val q = corpus.vectors(i * 11)
      Metrics.recallAt(opq.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }
    assert(recalls.sum / recalls.length > 0.3)
  }

  test("PCA-PQ search works end to end") {
    val idx = PCAPQIndex.build(corpus.vectors, corpus.ids, outDim = 8, m = 4, bits = 6)
    val recalls = (0 until 20).map { i =>
      val q = corpus.vectors(i * 13)
      Metrics.recallAt(idx.search(q, 10).map(_.id), flat.search(q, 10).map(_.id), 10)
    }
    assert(recalls.sum / recalls.length > 0.2, s"recall=${recalls.sum / recalls.length}")
  }

  test("index names match the paper's labels") {
    assert(PQIndex.build(corpus.vectors.take(100), corpus.ids.take(100), 4, 4).name == "PQ")
    assert(PCAPQIndex.build(corpus.vectors.take(100), corpus.ids.take(100), 8, 4, 4).name == "PCA-PQ")
  }
}
