package repro.datasource

import java.util
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.GenericInternalRow
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.sources.{DataSourceRegister, EqualTo, Filter, In}
import org.apache.spark.sql.types._
import org.apache.spark.sql.util.CaseInsensitiveStringMap
import repro.core.Scored
import repro.linalg.IdOps
import scala.jdk.CollectionConverters._

/** LIDER as a DataSource V2 table (DESIGN.md §4). Usage:
  *
  * {{{
  * spark.read.format("lider")
  *   .option("index", indexDir)     // IndexStore directory
  *   .option("queries", parquetDir) // (id: long, emb: array<float>) parquet
  *   .option("k", "10")             // k_m per in-cluster retriever
  *   .load()
  * }}}
  *
  * Scan planning *is* LIDER's layer-1: the centroids retriever runs on the
  * driver, routes each query to the index's c0 target clusters (c0 from
  * `meta.txt`), and every target cluster becomes one `InputPartition`, so
  * Spark's task parallelism realizes the paper's between-cluster
  * parallelism. Each partition emits that cluster's sorted top-k_m per
  * query (`rank` = in-cluster rank); the layer-3 global top-k is the
  * relational window in [[LiderSearch.topK]].
  *
  * `query_id` equality/IN predicates are pushed down into planning —
  * clusters targeted only by pruned queries are never scanned.
  */
class LiderDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "lider"

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = LiderDataSource.Schema

  override def getTable(
      schema: StructType,
      partitioning: Array[Transform],
      properties: util.Map[String, String]): Table =
    new LiderTable(properties.asScala.toMap)
}

object LiderDataSource {
  val Schema: StructType = StructType(Seq(
    StructField("query_id", LongType, nullable = false),
    StructField("passage_id", LongType, nullable = false),
    StructField("score", DoubleType, nullable = false),
    StructField("rank", IntegerType, nullable = false),
  ))
}

private[datasource] class LiderTable(props: Map[String, String]) extends Table with SupportsRead {
  override def name(): String = s"lider(${props.getOrElse("index", "?")})"
  override def schema(): StructType = LiderDataSource.Schema
  override def capabilities(): util.Set[TableCapability] = util.EnumSet.of(TableCapability.BATCH_READ)

  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new LiderScanBuilder(options.asScala.toMap)
}

private[datasource] class LiderScanBuilder(options: Map[String, String])
    extends ScanBuilder
    with SupportsPushDownFilters {

  // None = no pushed restriction; Some(set) = only these query ids survive.
  private var queryIdFilter: Option[Set[Long]] = None
  private var pushed: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    val (accepted, rejected) = filters.partition {
      case EqualTo("query_id", _: Long) => true
      case In("query_id", vs) => vs.forall(_.isInstanceOf[Long])
      case _ => false
    }
    val ids = accepted.flatMap {
      case EqualTo(_, v: Long) => Seq(v)
      case In(_, vs) => vs.map(_.asInstanceOf[Long]).toSeq
      case _ => Seq.empty
    }.toSet
    if (accepted.nonEmpty) queryIdFilter = Some(queryIdFilter.fold(ids)(_ intersect ids))
    pushed = accepted
    rejected // Spark re-applies these above the scan
  }

  override def pushedFilters(): Array[Filter] = pushed

  override def build(): Scan = new LiderScan(options, queryIdFilter)
}

private[datasource] class LiderScan(options: Map[String, String], queryIdFilter: Option[Set[Long]])
    extends Scan
    with Batch {

  private def opt(name: String): String =
    options.getOrElse(name, throw new IllegalArgumentException(s"lider: missing option '$name'"))

  // Checked when Spark builds the scan, before any task runs.
  private val k = {
    val text = options.getOrElse("k", "10")
    text.toIntOption.filter(_ > 0).getOrElse(
      throw new IllegalArgumentException(s"lider: option 'k' must be a positive integer, got '$text'"))
  }

  override def readSchema(): StructType = LiderDataSource.Schema
  override def toBatch: Batch = this

  override def planInputPartitions(): Array[InputPartition] = {
    val indexDir = opt("index")
    val queriesPath = opt("queries")
    val c0 = IndexStore.readMeta(indexDir)("c0").toInt

    // Layer 1 on the driver: route every (surviving) query to its c0
    // target clusters with the centroids retriever, then group the
    // (query, target) pairs by cluster, each cluster's queries in query order.
    val spark = SparkSession.active
    val centroidModel = IndexStore.loadCentroidModel(indexDir)
    val queries = spark.read.parquet(queriesPath)
      .select("id", "emb")
      .collect()
      .map(r => (r.getLong(0), r.getSeq[Float](1).toArray))
      .filter { case (qid, _) => queryIdFilter.forall(_.contains(qid)) }

    val targets = queries.map { case (_, emb) => centroidModel.search(emb, c0) }
    val queryOf = targets.zipWithIndex.flatMap { case (hits, q) => hits.map(_ => q) }
    val clusterOf = targets.flatMap(_.map(_.id.toInt))
    IdOps.group(clusterOf, centroidModel.size).zipWithIndex.collect {
      case (pairs, cid) if pairs.nonEmpty =>
        LiderInputPartition(indexDir, cid, pairs.map(i => queries(queryOf(i))), k): InputPartition
    }
  }

  override def createReaderFactory(): PartitionReaderFactory = new LiderReaderFactory
}

/** One target cluster plus the queries routed to it. */
private[datasource] final case class LiderInputPartition(
    indexDir: String,
    clusterId: Int,
    queries: Array[(Long, Array[Float])],
    k: Int)
    extends InputPartition

private[datasource] class LiderReaderFactory extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new LiderPartitionReader(partition.asInstanceOf[LiderInputPartition])
}

/** Layer 2 in an executor task: loads the cluster's core model from its
  * index file and streams (query_id, passage_id, score, in-cluster rank).
  */
private[datasource] class LiderPartitionReader(p: LiderInputPartition)
    extends PartitionReader[InternalRow] {

  private lazy val rows: Iterator[InternalRow] = {
    val cm = IndexStore.loadClusterModel(p.indexDir, p.clusterId)
    p.queries.iterator.flatMap { case (qid, emb) =>
      val hits: Array[Scored] = cm.search(emb, p.k)
      hits.iterator.zipWithIndex.map { case (s, rank) =>
        new GenericInternalRow(Array[Any](qid, s.id, s.score, rank + 1)): InternalRow
      }
    }
  }
  private var current: InternalRow = _

  override def next(): Boolean =
    if (rows.hasNext) { current = rows.next(); true } else false

  override def get(): InternalRow = current
  override def close(): Unit = ()
}
