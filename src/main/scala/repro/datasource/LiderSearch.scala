package repro.datasource

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{BuildStats, Lider, LiderParams}

/** Spark-facing build and query entrypoints for the persisted LIDER index. */
object LiderSearch {

  /** Builds LIDER from an embeddings Parquet `(id: long, emb: array<float>)`
    * and persists it with [[IndexStore]]. The scan and any upstream
    * transformations are Spark dataflow; the in-memory structure build is
    * the same parallel path the benches use (the paper's index is
    * driver/RAM-resident by design — it is an *in-memory* index, §2).
    */
  def buildIndex(
      spark: SparkSession,
      embParquet: String,
      indexDir: String,
      params: LiderParams): BuildStats = {
    val rows = spark.read.parquet(embParquet)
      .select("id", "emb")
      .collect()
    val ids = rows.map(_.getLong(0))
    val vectors = rows.map(_.getSeq[Float](1).toArray)
    val (lider, stats) = Lider.build(vectors, ids, params)
    IndexStore.save(lider, indexDir)
    stats
  }

  /** The raw DSv2 scan: per-cluster candidate rows
    * `(query_id, passage_id, score, rank)` — LIDER's in-cluster stage as
    * a dataflow.
    */
  def candidates(
      spark: SparkSession,
      indexDir: String,
      queriesParquet: String,
      k: Int): DataFrame =
    spark.read.format("lider")
      .option("index", indexDir)
      .option("queries", queriesParquet)
      .option("k", k.toString)
      .load()

  /** Full LIDER query as a DataFrame: the stage-3 global top-k merge is a
    * window rank over the per-cluster candidates (deterministic ties:
    * score desc, passage_id asc). Output: (query_id, passage_id, score,
    * rank) with rank ∈ [1, k].
    */
  def topK(
      spark: SparkSession,
      indexDir: String,
      queriesParquet: String,
      k: Int): DataFrame = {
    val w = Window.partitionBy("query_id").orderBy(desc("score"), asc("passage_id"))
    candidates(spark, indexDir, queriesParquet, k)
      .withColumn("rank", row_number().over(w))
      .filter(col("rank") <= k)
  }
}
