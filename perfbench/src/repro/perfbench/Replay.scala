package repro.perfbench

import java.io.PrintWriter
import repro.core.{Lider, Scored, TopK}

/** Spans recorded around each public call of a replayed query, kept in
  * primitive arrays and written out once the pass is over.
  */
final class Spans(capacity: Int) {
  private val name = new Array[Int](capacity)
  private val start = new Array[Long](capacity)
  private val end = new Array[Long](capacity)
  private val parent = new Array[Int](capacity)
  private val query = new Array[Int](capacity)
  var size = 0

  def open(nameId: Int, parentSpan: Int, queryId: Int): Int = {
    require(size < capacity, "span buffer full")
    val i = size
    name(i) = nameId; parent(i) = parentSpan; query(i) = queryId
    size += 1
    start(i) = System.nanoTime()
    i
  }

  def close(i: Int): Unit = end(i) = System.nanoTime()

  /** Self nanos per span name: a span's duration minus its children's. */
  def selfNanos: Array[Long] = {
    val self = new Array[Long](Replay.SpanNames.length)
    var i = 0
    while (i < size) {
      val d = end(i) - start(i)
      self(name(i)) += d
      if (parent(i) >= 0) self(name(parent(i))) -= d
      i += 1
    }
    self
  }

  def write(out: PrintWriter): Unit = {
    out.println("span\tname\tparent\tquery\tstart_ns\tend_ns")
    var i = 0
    while (i < size) {
      out.println(s"$i\t${Replay.SpanNames(name(i))}\t${parent(i)}\t${query(i)}\t${start(i)}\t${end(i)}")
      i += 1
    }
  }
}

/** Counts taken at the same call boundaries as the spans. */
final class ReplayCounts {
  var queries = 0L
  var clustersProbed = 0L
  var fannedOut = 0L
  var predictions = 0L
  var absErrSum = 0L
  var oor = 0L
  var le = 0L
  var saturated = 0L
  var candsRaw = 0L
  var candsDistinct = 0L
  var kept = 0L
}

/** Rebuilds `Lider.search` from the public calls of each layer — the
  * centroids retriever, per-cluster hashing, RMI prediction, ESK-LSH
  * expansion, verification and the heap merge — serially, one target
  * cluster after another. With `spans == null` nothing is recorded, which
  * is the untraced baseline for `trace.overhead_ratio`.
  */
object Replay {
  val SpanNames: Array[String] =
    Array("query", "core.centroids", "core.cluster", "lsh.hash", "rmi.predict", "esklsh.expand", "core.verify", "core.merge")
  private val Query = 0; private val Centroids = 1; private val Cluster = 2; private val Hash = 3
  private val Predict = 4; private val Expand = 5; private val Verify = 6; private val Merge = 7

  def search(lider: Lider, q: Array[Float], k: Int, qid: Int, spans: Spans, counts: ReplayCounts): Array[Scored] = {
    val tracing = spans != null
    val root = if (tracing) spans.open(Query, -1, qid) else -1

    var s = if (tracing) spans.open(Centroids, root, qid) else -1
    val targets = lider.targetClusters(q, lider.params.c0)
    if (tracing) spans.close(s)

    val perCluster = new Array[Array[Scored]](targets.length)
    var t = 0
    while (t < targets.length) {
      val cm = lider.inClusterRetrievers(targets(t))
      val cs = if (tracing) spans.open(Cluster, root, qid) else -1

      s = if (tracing) spans.open(Hash, cs, qid) else -1
      val keys = cm.esklsh.hashQuery(q)
      if (tracing) spans.close(s)

      s = if (tracing) spans.open(Predict, cs, qid) else -1
      val starts = Array.tabulate(cm.esklsh.numArrays)(h => cm.predictStart(h, keys(h)))
      if (tracing) spans.close(s)

      val range = math.max(1, cm.r0 * k)
      s = if (tracing) spans.open(Expand, cs, qid) else -1
      val cands = cm.esklsh.expandAll(keys, starts, range)
      if (tracing) spans.close(s)

      s = if (tracing) spans.open(Verify, cs, qid) else -1
      perCluster(t) = cm.verify(q, cands, k)
      if (tracing) spans.close(s)

      if (tracing) {
        spans.close(cs)
        countCluster(cm, keys, starts, range, k, cands.length, counts)
      }
      t += 1
    }

    s = if (tracing) spans.open(Merge, root, qid) else -1
    val merged = TopK.mergeSorted(perCluster, k)
    if (tracing) {
      spans.close(s)
      spans.close(root)
      val cc = lider.params.clusterCore
      counts.queries += 1
      counts.clustersProbed += targets.length
      if (targets.length.toLong * cc.numArrays * cc.r0 * k >= Lider.MinParallelWork) counts.fannedOut += 1
      counts.kept += merged.length
    }
    merged
  }

  /** RMI error against the true insertion point, with the Table 4 OOR
    * (prediction clamped to either end) and LE (off by more than k)
    * definitions, and the candidate counts of one cluster's expansion.
    */
  private def countCluster(
      cm: repro.core.CoreModel, keys: Array[Long], starts: Array[Int], range: Int, k: Int,
      distinct: Int, counts: ReplayCounts): Unit = {
    var h = 0
    while (h < cm.esklsh.numArrays) {
      val arr = cm.esklsh.arrays(h)
      val err = math.abs(starts(h) - arr.insertionPoint(keys(h)))
      counts.predictions += 1
      counts.absErrSum += err
      if (starts(h) == 0 || starts(h) == arr.length - 1) counts.oor += 1
      if (err > k) counts.le += 1
      counts.candsRaw += math.min(range, arr.length)
      h += 1
    }
    if (range >= cm.size) counts.saturated += 1
    counts.candsDistinct += distinct
  }

  /** Same ids and bit-identical scores, in the same order. */
  def sameResult(a: Array[Scored], b: Array[Scored]): Boolean = {
    if (a.length != b.length) return false
    var i = 0
    while (i < a.length) {
      if (a(i).id != b(i).id || a(i).score != b(i).score) return false
      i += 1
    }
    true
  }
}
