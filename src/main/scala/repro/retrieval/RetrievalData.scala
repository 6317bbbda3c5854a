package repro.retrieval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.linalg.VecOps
import scala.util.Random

/** A corpus of normalized passage embeddings (ids are 0 … n−1). */
final case class Corpus(vectors: Array[Array[Float]], dim: Int) {
  def n: Int = vectors.length
  val ids: Array[Long] = Array.tabulate(n)(_.toLong)
}

/** A Dev/NQ-style task: each query has exactly one relevant passage
  * (MRR@10), like MS MARCO Dev / Natural Questions in the paper.
  */
final case class PointTask(queries: Array[Array[Float]], relevant: Array[Long])

/** A TREC-style task: graded relevance judgments per query (NDCG@10). */
final case class GradedTask(queries: Array[Array[Float]], qrels: Array[Map[Long, Int]])

/** Synthetic stand-ins for the paper's embedding sets (DESIGN.md §2).
  *
  * The corpus is a topic mixture on the unit sphere: `ceil(sqrt n)` topic
  * centers (so per-topic passage density *grows* with corpus size — this
  * is what makes retrieval quality fall as N grows, the paper's Table 2
  * trend), passages are normalized noisy copies of their topic center.
  *
  * All draws are deterministic per element in (seed, index), independent
  * of parallelism, so Spark- and driver-side generation agree.
  */
object RetrievalData {

  /** Per-passage noise (expected perturbation *norm* relative to the unit
    * topic center; per-dimension noise follows the corpus spectrum, see
    * [[spectralScale]]).
    */
  val PassageSigma = 0.7
  /** Dev/NQ query noise norm range around the relevant passage. Each query
    * draws its own σ_q uniformly from this band, giving the query set a
    * difficulty spectrum: easy queries (σ_q small) succeed at every corpus
    * size, hard ones (relevant-passage similarity down at the same-topic
    * distractor band) only while per-topic distractor density is low —
    * so MRR falls smoothly as N grows, reproducing the paper's Table 2
    * trend (0.85 → 0.33 from MS-100k to MS-8.8M).
    */
  val QuerySigmaMin = 0.35
  val QuerySigmaMax = 1.6
  /** TREC planted-passage noise norm per grade (3 = most relevant). */
  val GradeSigma: Map[Int, Double] = Map(3 -> 0.3, 2 -> 0.6, 1 -> 0.9)
  /** TREC query count (the paper's task has 43 valid queries). */
  val TrecQueries = 43

  def numTopics(n: Int): Int = math.max(8, math.ceil(math.sqrt(n.toDouble)).toInt)

  /** Per-dimension spectral scale: real text embeddings (BERT/DPR) have a
    * strongly decaying covariance spectrum, which is what makes PCA-based
    * methods competitive in the paper (PCA-PQ keeps 192 of 768 dims with
    * little loss). We draw both topic centers and noise with per-dim std
    * ∝ exp(−j/τ), τ = dim/4, giving an effective rank of ~dim/4.
    */
  def spectralScale(dim: Int): Array[Double] = specCached(dim)._1

  private val specCache = new java.util.concurrent.ConcurrentHashMap[Int, (Array[Double], Double)]()
  private def specCached(dim: Int): (Array[Double], Double) =
    specCache.computeIfAbsent(dim, d => {
      val tau = d / 4.0
      val spec = Array.tabulate(d)(j => math.exp(-j / tau))
      (spec, math.sqrt(spec.map(x => x * x).sum))
    })

  /** splitmix64 finalizer — decorrelates the linearly-derived seeds below
    * (java.util.Random streams from nearby seeds are correlated, which
    * couples query noise to passage noise and skews task difficulty).
    */
  private def mix(seed: Long): Long = {
    var z = seed + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  private def rng(parts: Long*): Random = new Random(parts.foldLeft(0L)((acc, p) => mix(acc ^ mix(p))))

  private def gaussian(rnd: Random, dim: Int): Array[Float] = {
    val spec = spectralScale(dim)
    Array.tabulate(dim)(j => (rnd.nextGaussian() * spec(j)).toFloat)
  }

  private def perturbed(base: Array[Float], sigma: Double, rnd: Random): Array[Float] = {
    // Per-dim noise follows the same decaying spectrum as the data, scaled
    // so the total perturbation norm is ≈ sigma relative to the unit base.
    val dim = base.length
    val (spec, specNorm) = specCached(dim)
    val s = sigma / specNorm
    val out = new Array[Float](dim)
    var i = 0
    while (i < dim) { out(i) = base(i) + (rnd.nextGaussian() * spec(i) * s).toFloat; i += 1 }
    VecOps.normalized(out)
  }

  private def topicCenters(nTopics: Int, dim: Int, seed: Long): Array[Array[Float]] = {
    val rnd = rng(seed, 1L)
    Array.fill(nTopics)(VecOps.normalized(gaussian(rnd, dim)))
  }

  /** How many graded passages each TREC query plants into the corpus. */
  def trecPlantPerQuery(n: Int): Int = if (n >= 4000) 9 else 3

  /** Generates the corpus for size `n`. The tail block of
    * `TrecQueries · trecPlantPerQuery(n)` passages is reserved for the
    * TREC graded plants (they are ordinary on-topic points — noisy copies
    * of the TREC query vectors), so Dev/TREC tasks share one corpus the
    * way MS MARCO subsets do in the paper.
    */
  def corpus(n: Int, dim: Int, seed: Long): Corpus = {
    val centers = topicCenters(numTopics(n), dim, seed)
    val plant = trecPlantPerQuery(n)
    require(n >= TrecQueries * plant + 50,
      s"corpus size $n too small for the ${TrecQueries * plant} TREC plants")
    val plantedStart = n - TrecQueries * plant
    val trecQ = trecQueryVectors(dim, seed, centers)
    val vectors = repro.linalg.Parallel.tabulate(n) { i =>
      val rnd = rng(seed, 2L, i.toLong)
      if (i < plantedStart) {
        val t = rnd.nextInt(centers.length)
        perturbed(centers(t), PassageSigma, rnd)
      } else {
        // Planted graded passage: grade cycles 3,3,3,2,2,2,1,1,1 within
        // each query's block (or 3,2,1 for small corpora).
        val slot = i - plantedStart
        val qIdx = slot / plant
        val grade = 3 - (slot % plant) * 3 / plant
        perturbed(trecQ(qIdx), GradeSigma(grade), rnd)
      }
    }
    Corpus(vectors, dim)
  }

  /** [[corpus]] as a DataFrame `(id, emb)`: the Parquet-facing view used by
    * the LIDER DataSource V2 build path and its tests. Same (n, dim, seed)
    * gives identical vectors driver-side and Spark-side.
    */
  def embeddings(spark: SparkSession, n: Int, dim: Int = 64, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val rows = corpus(n, dim, seed).vectors.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toSeq
    spark.createDataset(rows).toDF("id", "emb")
  }

  private def trecQueryVectors(dim: Int, seed: Long, centers: Array[Array[Float]]): Array[Array[Float]] =
    Array.tabulate(TrecQueries) { j =>
      val rnd = rng(seed, 3L, j.toLong)
      perturbed(centers(rnd.nextInt(centers.length)), PassageSigma, rnd)
    }

  /** Dev/NQ-style task: `numQueries` queries, each a noisy copy of a
    * distinct non-planted passage (its single qrel).
    */
  def pointTask(c: Corpus, numQueries: Int, seed: Long): PointTask = {
    val plantedStart = c.n - TrecQueries * trecPlantPerQuery(c.n)
    val rnd = rng(seed, 4L)
    val chosen = scala.collection.mutable.LinkedHashSet[Int]()
    while (chosen.size < math.min(numQueries, plantedStart)) chosen += rnd.nextInt(plantedStart)
    val rel = chosen.toArray
    val queries = Array.tabulate(rel.length) { qi =>
      val qrnd = rng(seed, 5L, qi.toLong)
      val sigma = QuerySigmaMin + (QuerySigmaMax - QuerySigmaMin) * qrnd.nextDouble()
      perturbed(c.vectors(rel(qi)), sigma, qrnd)
    }
    PointTask(queries, rel.map(_.toLong))
  }

  /** TREC-style graded task over the planted tail block of the corpus. */
  def gradedTask(c: Corpus, seed: Long): GradedTask = {
    val plant = trecPlantPerQuery(c.n)
    val plantedStart = c.n - TrecQueries * plant
    val centers = topicCenters(numTopics(c.n), c.dim, seed)
    val qVecs = trecQueryVectors(c.dim, seed, centers)
    val qrels = Array.tabulate(TrecQueries) { j =>
      (0 until plant).map { s =>
        val pid = (plantedStart + j * plant + s).toLong
        val grade = 3 - s * 3 / plant
        pid -> grade
      }.toMap
    }
    GradedTask(qVecs, qrels)
  }
}
