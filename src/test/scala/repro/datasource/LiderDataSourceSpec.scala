package repro.datasource

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{Lider, LiderParams, CoreModelParams}
import repro.retrieval.RetrievalData

/** End-to-end tests of the DataSource V2 integration: index persisted with
  * [[IndexStore]], queried through `spark.read.format("lider")`, checked
  * for equivalence against the in-memory engine and the DuckDB oracle.
  */
class LiderDataSourceSpec extends SparkSpec {

  private lazy val tmp = Files.createTempDirectory("lider-dsv2").toString
  private lazy val corpus = RetrievalData.corpus(800, 16, seed = 91)
  private lazy val params = LiderParams(
    c = 10, c0 = 3,
    centroidCore = CoreModelParams(numArrays = 5, rmiWidth = 4),
    clusterCore = CoreModelParams(numArrays = 5, rmiWidth = 4),
    kmeansSample = 800)
  private lazy val built: (Lider, String, String) = {
    import spark.implicits._
    val embPath = s"$tmp/emb.parquet"
    corpus.vectors.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toSeq
      .toDF("id", "emb").write.mode("overwrite").parquet(embPath)
    val indexDir = s"$tmp/index"
    LiderSearch.buildIndex(spark, embPath, indexDir, params)

    val queries = (0 until 25).map(i => (i.toLong, corpus.vectors(i * 31)))
    queries.toDF("id", "emb").write.mode("overwrite").parquet(s"$tmp/queries.parquet")
    (IndexStore.load(indexDir), indexDir, s"$tmp/queries.parquet")
  }

  test("buildIndex persists meta, centroid model and cluster files") {
    val (_, indexDir, _) = built
    val meta = IndexStore.readMeta(indexDir)
    assert(meta("dim") == "16" && meta("c") == "10" && meta("c0") == "3")
    assert(new java.io.File(indexDir, "centroid_model.bin").isFile)
    assert((0 until 10).forall(IndexStore.clusterExists(indexDir, _)))
  }

  test("DSv2 scan exposes the documented schema") {
    val (_, indexDir, queriesPath) = built
    val df = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
    assert(df.schema.fieldNames.toSeq == Seq("query_id", "passage_id", "score", "rank"))
  }

  test("topK returns at most k hits per query with ranks 1..k") {
    val (_, indexDir, queriesPath) = built
    val df = LiderSearch.topK(spark, indexDir, queriesPath, k = 5).cache()
    val counts = df.groupBy("query_id").count().collect()
    assert(counts.nonEmpty && counts.forall(_.getLong(1) <= 5))
    val ranks = df.select("rank").distinct().collect().map(_.getInt(0)).sorted
    assert(ranks.head == 1 && ranks.last <= 5)
  }

  test("DSv2 topK equals the in-memory LIDER search") {
    // All 25 queries, then seeded random query_id IN pushdown sets: exactly
    // the kept queries come back, each with Lider.search's ids and score bits.
    val (lider, indexDir, queriesPath) = built
    val rnd = new scala.util.Random(17)
    val keptSets = (0 until 25).map(_.toLong) +:
      Seq.fill(3)(rnd.shuffle((0 until 25).toList).take(1 + rnd.nextInt(8)).map(_.toLong))
    def hit(id: Long, score: Double) = (id, java.lang.Double.doubleToRawLongBits(score))
    for (kept <- keptSets) {
      val df = LiderSearch.topK(spark, indexDir, queriesPath, k = 5).filter(col("query_id").isin(kept: _*))
      val got = df.collect()
        .groupBy(_.getLong(0))
        .view.mapValues(_.sortBy(_.getInt(3)).map(r => hit(r.getLong(1), r.getDouble(2))).toSeq).toMap
      assert(got.keySet == kept.toSet, s"kept $kept")
      for (qi <- kept) {
        val expected = lider.search(corpus.vectors(qi.toInt * 31), 5).map(s => hit(s.id, s.score)).toSeq
        assert(got(qi) == expected, s"query $qi of $kept")
      }
    }
  }

  test("DSv2 topK over an index whose empty k-means clusters build dropped equals Lider.search") {
    // Six distinct vectors, each 100 times, and c = 12: k-means leaves
    // clusters empty, and c0 = 8 exceeds the c′ clusters that remain.
    import spark.implicits._
    val vectors = repro.core.LiderSpec.repeating(600, 16, distinct = 6, seed = 91)
    val embPath = s"$tmp/dup-emb.parquet"
    vectors.indices.map(i => (i.toLong, vectors(i))).toDF("id", "emb").write.mode("overwrite").parquet(embPath)
    val indexDir = s"$tmp/dup-index"
    LiderSearch.buildIndex(spark, embPath, indexDir, params.copy(c = 12, c0 = 8, kmeansSample = 600))
    val lider = IndexStore.load(indexDir)
    assert(lider.numClusters < 8, s"c′ = ${lider.numClusters}")
    val rnd = new scala.util.Random(5)
    val queries = (0 until 12).map(i =>
      i.toLong -> repro.linalg.VecOps.normalized(vectors(i).map(x => x + rnd.nextGaussian().toFloat * 0.1f)))
    val queriesPath = s"$tmp/dup-queries.parquet"
    queries.toDF("id", "emb").write.mode("overwrite").parquet(queriesPath)
    def hit(id: Long, score: Double) = (id, java.lang.Double.doubleToRawLongBits(score))
    for (k <- Seq(5, 150)) {
      val got = LiderSearch.topK(spark, indexDir, queriesPath, k).collect()
        .groupBy(_.getLong(0))
        .view.mapValues(_.sortBy(_.getInt(3)).map(r => hit(r.getLong(1), r.getDouble(2))).toSeq).toMap
      for ((qid, q) <- queries)
        assert(got(qid) == lider.search(q, k).map(s => hit(s.id, s.score)).toSeq, s"query $qid, k = $k")
    }
  }

  test("query_id equality pushdown prunes to a single query") {
    val (_, indexDir, queriesPath) = built
    val df = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
      .filter(col("query_id") === 3L)
    val qids = df.select("query_id").distinct().collect().map(_.getLong(0))
    assert(qids.toSeq == Seq(3L))
  }

  test("query_id IN pushdown keeps exactly the requested queries") {
    val (_, indexDir, queriesPath) = built
    val df = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
      .filter(col("query_id").isin(1L, 4L, 7L))
    val qids = df.select("query_id").distinct().collect().map(_.getLong(0)).sorted
    assert(qids.toSeq == Seq(1L, 4L, 7L))
  }

  test("pushdown prunes scanned partitions, not just rows") {
    val (_, indexDir, queriesPath) = built
    val all = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
    val one = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
      .filter(col("query_id") === 0L)
    assert(one.rdd.getNumPartitions <= all.rdd.getNumPartitions)
    assert(one.rdd.getNumPartitions <= params.c0)
  }

  test("stage-3 window merge agrees with the DuckDB oracle") {
    // Round scores first so both engines rank the *same* values (ties then
    // break by passage_id identically on both sides).
    val (_, indexDir, queriesPath) = built
    val cand = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
      .select(col("query_id"), col("passage_id"), round(col("score"), 4) as "score")
      .cache()
    val w = org.apache.spark.sql.expressions.Window
      .partitionBy("query_id").orderBy(desc("score"), asc("passage_id"))
    val got = cand.withColumn("rank", row_number().over(w))
      .filter(col("rank") <= 5)
      .select(col("query_id"), col("passage_id"), col("rank"))
    Oracle.assertEquivalent(
      got,
      """SELECT query_id, passage_id, rank FROM (
        |  SELECT CAST(query_id AS BIGINT) AS query_id,
        |         CAST(passage_id AS BIGINT) AS passage_id,
        |         CAST(row_number() OVER (
        |           PARTITION BY CAST(query_id AS BIGINT)
        |           ORDER BY CAST(score AS DOUBLE) DESC, CAST(passage_id AS BIGINT) ASC
        |         ) AS INT) AS rank
        |  FROM cand
        |) WHERE rank <= 5""".stripMargin,
      "cand" -> cand)
  }

  test("per-cluster candidate ranks are contiguous from 1") {
    val (_, indexDir, queriesPath) = built
    val df = LiderSearch.candidates(spark, indexDir, queriesPath, k = 5)
    // For every (query, partition) the in-cluster rank sequence starts at 1.
    val minRanks = df.groupBy("query_id").agg(min("rank") as "mr").collect()
    assert(minRanks.forall(_.getInt(1) == 1))
  }

  test("missing required option fails loudly") {
    val ex = intercept[Exception] {
      spark.read.format("lider").option("index", built._2).load().collect()
    }
    assert(ex.getMessage.contains("queries") || ex.getCause != null)
  }

  test("a k that is not a positive integer fails at planning with an IllegalArgumentException naming option k") {
    val (_, indexDir, queriesPath) = built
    for (bad <- Seq("0", "-1", "abc")) {
      val df = spark.read.format("lider").option("index", indexDir).option("queries", queriesPath).option("k", bad).load()
      val ex = intercept[Exception](df.collect())
      val iae = Iterator.iterate[Throwable](ex)(_.getCause).takeWhile(_ != null).collectFirst { case e: IllegalArgumentException => e }
      assert(iae.exists(_.getMessage.contains(s"option 'k' must be a positive integer, got '$bad'")), ex.toString)
    }
  }
}
