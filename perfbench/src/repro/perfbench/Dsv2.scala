package repro.perfbench

import java.io.File
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core.{CoreModel, Scored}
import repro.datasource.{IndexStore, LiderSearch}

/** The DataSource V2 side of the benchmark: a local Spark session, query
  * Parquet files, and batches of `LiderSearch.topK(...).collect()`.
  */
object Dsv2 {

  def start(workDir: File, cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getPath)
      .getOrCreate()

  /** Writes `(id, emb)` query rows, the schema `format("lider")` reads. */
  def writeQueries(spark: SparkSession, path: String, ids: Array[Long], vecs: Array[Array[Float]]): Unit = {
    import spark.implicits._
    ids.indices.map(i => (ids(i), vecs(i))).toDF("id", "emb")
      .coalesce(1).write.mode("overwrite").parquet(path)
  }

  /** One batch: the full DSv2 query, collected and grouped per query id
    * into rank-ordered hits.
    */
  def topK(spark: SparkSession, indexDir: String, queries: String, k: Int): Map[Long, Array[Scored]] =
    LiderSearch.topK(spark, indexDir, queries, k).collect()
      .groupBy(_.getLong(0))
      .map { case (qid, rows) => qid -> rows.sortBy(_.getInt(3)).map(r => Scored(r.getLong(1), r.getDouble(2))) }

  /** Rows of the raw per-cluster scan, without the window merge. */
  def scan(spark: SparkSession, indexDir: String, queries: String, k: Int): Int =
    LiderSearch.candidates(spark, indexDir, queries, k).collect().length

  /** Layer-1 routing as scan planning does it: the centroids retriever
    * over every batch query, keeping clusters that have an index file.
    * Returns the number of (query, cluster) routes.
    */
  def route(centroids: CoreModel, indexDir: String, queries: Array[Array[Float]], c0: Int): Int =
    queries.iterator.map(q => centroids.search(q, c0).count(h => IndexStore.clusterExists(indexDir, h.id.toInt))).sum
}

/** Task-level totals from Spark's listener bus. */
final class TaskStats extends SparkListener {
  private var tasks, runMs, gcMs, deserMs, delayMs = 0L

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val info = e.taskInfo
    if (m != null && info != null) {
      tasks += 1
      runMs += m.executorRunTime
      gcMs += m.jvmGCTime
      deserMs += m.executorDeserializeTime
      delayMs += math.max(0L, info.duration - m.executorRunTime - m.executorDeserializeTime -
        m.resultSerializationTime - info.gettingResultTime)
    }
  }

  /** (tasks, run ms, GC ms, deserialize ms, scheduler delay ms). */
  def totals: (Long, Long, Long, Long, Long) = synchronized((tasks, runMs, gcMs, deserMs, delayMs))

  /** The bus delivers events asynchronously: waits until the task count
    * has not moved for 300 ms.
    */
  def settle(): Unit = {
    var last = -1L
    var stableSince = System.nanoTime()
    val deadline = System.nanoTime() + 10_000_000_000L
    while (System.nanoTime() - stableSince < 300_000_000L && System.nanoTime() < deadline) {
      val now = totals._1
      if (now != last) { last = now; stableSince = System.nanoTime() }
      Thread.sleep(20)
    }
  }
}
