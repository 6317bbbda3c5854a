package repro

import org.apache.spark.sql.functions._
import repro.retrieval.RetrievalData

/** Spark-side view of the synthetic embedding corpus
  * ([[RetrievalData.embeddings]]) + oracle checks of the relational
  * plumbing the benches rely on.
  */
class SynthDataSpec extends SparkSpec {

  private lazy val df = RetrievalData.embeddings(spark, n = 500, dim = 16, seed = 5).cache()

  test("embeddings DataFrame has (id, emb) with one row per passage") {
    assert(df.columns.toSeq == Seq("id", "emb"))
    assert(df.count() == 500)
  }

  test("Spark-side vectors equal driver-side RetrievalData vectors") {
    val local = RetrievalData.corpus(500, 16, seed = 5)
    val collected = df.orderBy("id").collect()
    collected.foreach { r =>
      val id = r.getLong(0)
      val emb = r.getSeq[Float](1).toArray
      assert(emb.sameElements(local.vectors(id.toInt)), s"id=$id")
    }
  }

  test("ids are the dense range 0..n-1 (oracle)") {
    val got = df.agg(
      count(lit(1)) as "n",
      countDistinct(col("id")) as "distinct_ids",
      min(col("id")) as "min_id",
      max(col("id")) as "max_id")
    Oracle.assertEquivalent(
      got,
      """SELECT count(*) AS n, count(DISTINCT id) AS distinct_ids,
        |       min(CAST(id AS BIGINT)) AS min_id, max(CAST(id AS BIGINT)) AS max_id
        |FROM emb""".stripMargin,
      "emb" -> df.select("id"))
  }

  test("norms are 1 in Spark too (the generator normalizes)") {
    val norms = df.select(aggregate(transform(col("emb"), x => x * x), lit(0.0d), (a, x) => a + x) as "sq")
      .agg(min("sq") as "lo", max("sq") as "hi")
      .collect()(0)
    assert(math.abs(norms.getDouble(0) - 1.0) < 1e-3)
    assert(math.abs(norms.getDouble(1) - 1.0) < 1e-3)
  }

  test("embedding generation via Spark is deterministic") {
    val again = RetrievalData.embeddings(spark, 500, 16, seed = 5)
    assert(df.orderBy("id").collect().map(_.getSeq[Float](1)).toSeq ==
      again.orderBy("id").collect().map(_.getSeq[Float](1)).toSeq)
  }
}
