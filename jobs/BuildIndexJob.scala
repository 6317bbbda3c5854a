package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.datasource.LiderSearch
import repro.retrieval.{RetrievalData, Scaled}

/** spark-submit entrypoint building a persisted LIDER index over an
  * embeddings Parquet (generating a synthetic corpus first if the Parquet
  * does not exist). Usage:
  *
  *   spark-submit --class repro.jobs.BuildIndexJob repro.jar \
  *     <embParquet> <indexDir> [n] [dim]
  */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 2, "usage: BuildIndexJob <embParquet> <indexDir> [n] [dim]")
    val Array(embPath, indexDir) = args.take(2)
    val n = args.lift(2).map(_.toInt).getOrElse(10_000)
    val dim = args.lift(3).map(_.toInt).getOrElse(Scaled.Dim)

    val spark = SparkSession.builder().appName("lider-build").getOrCreate()
    if (!new java.io.File(embPath).exists()) {
      Console.err.println(s"[build] generating $n embeddings (dim=$dim) into $embPath")
      RetrievalData.embeddings(spark, n, dim).write.mode("overwrite").parquet(embPath)
    }
    val stats = LiderSearch.buildIndex(spark, embPath, indexDir, Scaled.liderParams(n))
    Console.err.println(
      f"[build] stages: clustering=${stats.clusteringNanos / 1e9}%.1fs " +
      f"centroids=${stats.centroidRetrieverNanos / 1e9}%.2fs " +
      f"inCluster=${stats.inClusterNanos / 1e9}%.1fs → $indexDir")
    spark.stop()
  }
}
