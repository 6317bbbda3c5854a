package repro.perfbench

import java.io.{File, PrintWriter}
import repro.baselines.Flat
import repro.core.{IndexFootprint, Lider, Scored}
import repro.datasource.IndexStore
import repro.linalg.Parallel
import repro.retrieval.{Corpus, Metrics, PointTask, RetrievalData, Scaled}
import scala.collection.mutable

/** One run of one workload; [[execute]] returns the result JSON line. */
final class Run(w: Workload, seed: Long, seconds: Double, trace: Boolean, workDir: File, tiny: Boolean) {
  private val k = w.k
  private val cores = Runtime.getRuntime.availableProcessors
  private val metrics = mutable.LinkedHashMap[String, Metric]()
  private var attempted = 0L
  private var failed = 0L

  private def e2e(name: String, value: Double, unit: String): Unit = metrics(name) = Metric(value, unit, e2e = true)
  private def layer(name: String, value: Double, unit: String): Unit = metrics(name) = Metric(value, unit, e2e = false)
  private def log(s: String): Unit = Console.err.println(s"[perfbench] $s")
  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def check(ok: Boolean): Unit = { attempted += 1; if (!ok) failed += 1 }

  /** The set-up: the generated corpus and the index built over it. The
    * query pool is generated with it but is the client's input, so its
    * time is not part of set-up.
    */
  private final case class Built(corpus: Corpus, lider: Lider, pool: PointTask, parts: Map[String, Double])

  private def setupOnce(): Built = {
    val t0 = System.nanoTime()
    val corpus = RetrievalData.corpus(w.n, Scaled.Dim, seed)
    val corpusS = secs(t0)
    val (lider, stats) = Lider.build(corpus.vectors, corpus.ids, w.params)
    val pool = RetrievalData.pointTask(corpus, w.poolSize, seed + 1)
    require(pool.queries.length == w.poolSize, s"pool has ${pool.queries.length} queries, wanted ${w.poolSize}")
    Built(corpus, lider, pool, Map(
      "retrieval.corpus_s" -> corpusS,
      "kmeans.cluster_s" -> stats.clusteringNanos / 1e9,
      "core.build_centroids_s" -> stats.centroidRetrieverNanos / 1e9,
      "core.build_clusters_s" -> stats.inClusterNanos / 1e9))
  }

  def execute(): String = {
    val probeBefore = HostProbe.kopsPerSecond()
    log(s"workload=${w.name} seed=$seed seconds=$seconds trace=${if (trace) 1 else 0} tiny=$tiny cores=$cores")

    // ---- set-up ----
    val Built(corpus, lider, pool, parts) = setupOnce()
    e2e("setup_s", parts.values.sum, "s")
    parts.foreach { case (part, v) => layer(part, v, "s") }
    e2e("heap_used_bytes", Jvm.heapUsedAfterGc().toDouble, "bytes")
    e2e("index_bytes", IndexFootprint.liderBytes(lider).toDouble, "bytes")
    val indexDir = new File(workDir, "index")
    val t0 = System.nanoTime()
    IndexStore.save(lider, indexDir.getPath)
    layer("datasource.save_s", secs(t0), "s")
    e2e("index_disk_bytes", dirBytes(indexDir).toDouble, "bytes")
    val order = new scala.util.Random(seed * 31 + 7).shuffle(pool.queries.indices.toVector).toArray

    // ---- untimed output checks ----
    val reference = Parallel.tabulate(pool.queries.length)(i => lider.search(pool.queries(i), k))
    reference.foreach(r => check(valid(r, corpus.n)))
    val flat = new Flat(corpus.vectors, corpus.ids)
    val exact = Parallel.tabulate(w.recallSize)(i => flat.search(pool.queries(i), k).map(_.id))
    e2e("recall_at_k", exact.indices.map(i => Metrics.recallAt(reference(i).map(_.id), exact(i), k)).sum / exact.length, "ratio")
    e2e("mrr_at_10", Metrics.mrrAt(reference.map(_.map(_.id)), pool.relevant), "ratio")
    // Replay equivalence: the per-layer reconstruction equals Lider.search.
    val replayIds = order.take(w.traceSize)
    replayIds.foreach(qi => check(Replay.sameResult(Replay.search(lider, pool.queries(qi), k, qi, null, null), reference(qi))))

    // ---- warm-up and timed window: one closed-loop client ----
    val client = new Client(lider, pool, order, reference)
    val scratch = new Array[Long](1 << 16)
    val warmS =
      if (tiny) Jvm.warmUntilJitSettles(200, 2000, 100)(ns => client.runFor(ns, scratch))
      else Jvm.warmUntilJitSettles(3000, 30000, 500)(ns => client.runFor(ns, scratch))
    val lat = new Array[Long](math.max(1 << 16, (seconds * 40_000).toInt))
    val before = Jvm.snapshot()
    val start = System.nanoTime()
    val n = client.runFor((seconds * 1e9).toLong, lat)
    val window = secs(start)
    val d = Jvm.snapshot() - before
    attempted += client.done; failed += client.bad
    log("queries per second of search time, by second of the window: " + perSecond(lat, n).mkString(" "))
    val tailPct = Stats.supportedPercentile(n, 99.0)
    e2e("qps", n / window, "1/s")
    e2e("latency_p50_ms", Stats.percentile(lat, n, 50) / 1e6, "ms")
    e2e("latency_tail_ms", Stats.percentile(lat, n, tailPct) / 1e6, "ms")
    layer("run.samples", n, "count")
    layer("run.tail_percentile", tailPct, "pct")
    layer("jvm.warmup_s", warmS, "s")
    layer("jvm.alloc_bytes_per_query", d.allocBytes.toDouble / n, "bytes")
    layer("jvm.gc_count", d.gcCount, "count")
    layer("jvm.gc_ms", d.gcMillis, "ms")
    layer("jvm.jit_ms_in_window", d.jitMillis, "ms")
    log(f"timed window: $n queries, latency_tail_ms is p$tailPct%.0f (${(n * (1 - tailPct / 100)).toInt} " +
      f"samples beyond it), warm-up $warmS%.1f s, ${client.done - n} queries during warm-up")
    val probeAfter = HostProbe.kopsPerSecond()
    layer("host.spin_kops_s", (probeBefore + probeAfter) / 2, "kops/s")
    log(f"host probe before=$probeBefore%.1f after=$probeAfter%.1f kops/s")

    if (trace) {
      tracePass(lider, pool, replayIds, reference, indexDir)
      if (w.dsv2Batch > 0) dsv2Pass(lider, pool, order.take(w.dsv2Batch), reference, indexDir)
      else {
        log("this workload's trace does not run Spark: its spark.* and scan-side datasource.* metrics read 0")
        Seq("spark.start_s" -> "s", "datasource.queries_parquet_s" -> "s", "datasource.route_ms" -> "ms",
          "datasource.scan_ms" -> "ms", "datasource.merge_ms" -> "ms", "spark.tasks" -> "count",
          "spark.task_run_ms" -> "ms", "spark.task_gc_ms" -> "ms", "spark.task_deser_ms" -> "ms",
          "spark.scheduler_delay_ms" -> "ms").foreach { case (m, u) => layer(m, 0, u) }
      }
    }

    e2e("success_rate", (attempted - failed).toDouble / attempted, "ratio")
    log(s"attempted=$attempted failed=$failed (timed window and warm-up ${client.done}, the rest untimed checks)")
    report()
  }

  private def dirBytes(f: File): Long =
    if (f.isFile) f.length() else Option(f.listFiles).map(_.iterator.map(dirBytes).sum).getOrElse(0L)

  /** Query counts per second of accumulated latency, to show drift inside
    * a window.
    */
  private def perSecond(lat: Array[Long], n: Int): Seq[Int] = {
    val out = mutable.ArrayBuffer[Int]()
    var acc = 0L; var count = 0; var i = 0
    while (i < n) {
      acc += lat(i); count += 1
      if (acc >= 1_000_000_000L) { out += count; acc = 0L; count = 0 }
      i += 1
    }
    out.toSeq
  }

  /** k hits, ids inside the corpus, scores finite and non-increasing. */
  private def valid(r: Array[Scored], n: Int): Boolean =
    r.length == k && r.forall(s => s.id >= 0 && s.id < n && !s.score.isNaN) &&
      (1 until r.length).forall(i => r(i - 1).score >= r(i).score)

  /** One client sending `Lider.search` requests back to back, each
    * checked against the reference result of its query.
    */
  private final class Client(lider: Lider, pool: PointTask, order: Array[Int], reference: Array[Array[Scored]]) {
    private var pos = 0
    var done = 0L
    var bad = 0L

    /** Runs queries for `nanos`; latencies go to `lat` from index 0, and
      * the count run is returned. Warm-up and the timed window share this
      * loop, so the window runs code the warm-up already compiled.
      */
    def runFor(nanos: Long, lat: Array[Long]): Int = {
      val end = System.nanoTime() + nanos
      var n = 0
      while (n < lat.length && System.nanoTime() < end) {
        val qi = order(pos)
        pos = if (pos + 1 == order.length) 0 else pos + 1
        val t0 = System.nanoTime()
        val r = try lider.search(pool.queries(qi), k) catch {
          case e: Exception => log(s"query $qi threw $e"); null
        }
        lat(n) = System.nanoTime() - t0
        n += 1
        if (r == null || !Replay.sameResult(r, reference(qi))) bad += 1
      }
      done += n
      n
    }
  }

  private val spanLayers = Seq("core.centroids", "lsh.hash", "rmi.predict", "esklsh.expand", "core.verify", "core.merge")

  /** The traced pass, run after the timed window: untraced and traced
    * replays alternate (U T U T) over the same queries; per-layer self
    * times are the traced passes' mean per query. The replay is serial,
    * so on a fan-out workload a layer's time is its busy time, not its
    * share of wall time.
    */
  private def tracePass(
      lider: Lider, pool: PointTask, ids: Array[Int], reference: Array[Array[Scored]], indexDir: File): Unit = {
    val maxSpans = ids.length * (3 + lider.params.c0 * 5)
    val untraced = mutable.ArrayBuffer[Double]()
    val traced = mutable.ArrayBuffer[Double]()
    var lastSpans: Spans = null
    var counts: ReplayCounts = null
    val self = new Array[Long](Replay.SpanNames.length)
    for (_ <- 1 to 2) {
      var t0 = System.nanoTime()
      ids.foreach(qi => Replay.search(lider, pool.queries(qi), k, qi, null, null))
      untraced += secs(t0)
      val spans = new Spans(maxSpans)
      val c = new ReplayCounts
      t0 = System.nanoTime()
      ids.foreach(qi => check(Replay.sameResult(Replay.search(lider, pool.queries(qi), k, qi, spans, c), reference(qi))))
      traced += secs(t0)
      val s = spans.selfNanos
      s.indices.foreach(i => self(i) += s(i))
      lastSpans = spans
      if (counts == null) counts = c
    }
    val perQueryUs = (nanos: Long) => nanos / 1e3 / (2.0 * ids.length)
    spanLayers.foreach(l => layer(s"${l}_us", perQueryUs(self(Replay.SpanNames.indexOf(l))), "us"))
    layer("trace.overhead_ratio", traced.sum / untraced.sum, "ratio")
    val cc = lider.params.clusterCore
    val fansOut = lider.params.c0.toLong * cc.numArrays * cc.r0 * k >= Lider.MinParallelWork
    log(f"trace: bookkeeping between spans ${perQueryUs(self(0) + self(2))}%.2f us/query; " +
      (if (fansOut) "Lider.search fans out here, so the serial replay gives each layer's busy time, not its wall share"
       else "Lider.search runs on one thread here"))

    val c = counts
    layer("core.clusters_probed", c.clustersProbed.toDouble / c.queries, "count")
    layer("rmi.abs_err_mean", c.absErrSum.toDouble / c.predictions, "positions")
    layer("rmi.oor_share", c.oor.toDouble / c.predictions, "ratio")
    layer("rmi.le_share", c.le.toDouble / c.predictions, "ratio")
    layer("esklsh.cands_raw", c.candsRaw.toDouble / c.queries, "count")
    layer("esklsh.cands_distinct", c.candsDistinct.toDouble / c.queries, "count")
    layer("esklsh.distinct_ratio", c.candsDistinct.toDouble / c.candsRaw, "ratio")
    layer("esklsh.window_saturated_share", c.saturated.toDouble / c.clustersProbed, "ratio")
    layer("core.verify_useful_ratio", c.kept.toDouble / c.candsDistinct, "ratio")
    layer("core.fanout_share", c.fannedOut.toDouble / c.queries, "ratio")

    // Codec loads, timed on this run's saved index.
    val dir = indexDir.getPath
    layer("datasource.load_centroids_ms",
      Stats.median((1 to 5).map { _ => val t0 = System.nanoTime(); IndexStore.loadCentroidModel(dir); secs(t0) * 1e3 }), "ms")
    val sample = (0 until lider.numClusters by math.max(1, lider.numClusters / 100)).filter(IndexStore.clusterExists(dir, _))
    val t0 = System.nanoTime()
    sample.foreach(cid => IndexStore.loadClusterModel(dir, cid))
    layer("datasource.load_cluster_us", secs(t0) * 1e6 / sample.length, "us")

    val spansFile = new File(workDir.getParentFile, s"spans-${w.name}-seed$seed.tsv")
    val out = new PrintWriter(spansFile)
    try lastSpans.write(out) finally out.close()
    log(s"spans of the last traced pass written to $spansFile")
  }

  /** The saved index queried through format("lider") in batches of
    * `batch`: Spark start, the batch's query Parquet, driver-side routing,
    * the raw scan and the full top-k with its window merge, plus task
    * metrics from a listener. Three untimed batches warm Spark first;
    * every batch's results are checked against `Lider.search`.
    */
  private def dsv2Pass(
      lider: Lider, pool: PointTask, batch: Array[Int], reference: Array[Array[Scored]], indexDir: File): Unit = {
    val dir = indexDir.getPath
    var t0 = System.nanoTime()
    val spark = Dsv2.start(workDir, cores)
    try {
      layer("spark.start_s", secs(t0), "s")
      val batchPath = new File(workDir, "batch.parquet").getPath
      t0 = System.nanoTime()
      Dsv2.writeQueries(spark, batchPath, batch.map(_.toLong), batch.map(pool.queries))
      layer("datasource.queries_parquet_s", secs(t0), "s")
      val centroids = IndexStore.loadCentroidModel(dir)
      layer("datasource.route_ms", Stats.median((1 to 3).map { _ =>
        val t0 = System.nanoTime(); Dsv2.route(centroids, dir, batch.map(pool.queries), lider.params.c0); secs(t0) * 1e3 }), "ms")
      def topK(): Unit = {
        val got = Dsv2.topK(spark, dir, batchPath, k)
        batch.foreach(qi => check(Replay.sameResult(got.getOrElse(qi.toLong, Array.empty[Scored]), reference(qi))))
      }
      (1 to 3).foreach(_ => topK())
      val stats = new TaskStats
      spark.sparkContext.addSparkListener(stats)
      val scans = (1 to 3).map { _ => val t0 = System.nanoTime(); Dsv2.scan(spark, dir, batchPath, k); secs(t0) * 1e3 }
      val tops = (1 to 3).map { _ => val t0 = System.nanoTime(); topK(); secs(t0) * 1e3 }
      stats.settle()
      spark.sparkContext.removeSparkListener(stats)
      val (tasks, run, gc, deser, delay) = stats.totals
      val batches = scans.length + tops.length
      layer("datasource.scan_ms", Stats.median(scans), "ms")
      layer("datasource.merge_ms", Stats.median(tops) - Stats.median(scans), "ms")
      layer("spark.tasks", tasks.toDouble / batches, "count")
      layer("spark.task_run_ms", run.toDouble / batches, "ms")
      layer("spark.task_gc_ms", gc.toDouble / batches, "ms")
      layer("spark.task_deser_ms", deser.toDouble / batches, "ms")
      layer("spark.scheduler_delay_ms", delay.toDouble / batches, "ms")
      log(f"dsv2: ${batch.length}-query batches, top-k ${Stats.median(tops)}%.1f ms per batch")
    } finally spark.stop()
  }

  /** Every metric, each with its kind: `e2e` or `layer`. */
  private def report(): String = {
    metrics.foreach { case (n, m) =>
      log(f"${if (m.e2e) "e2e  " else "layer"} $n%-34s ${m.value}%.6g ${m.unit}")
    }
    val ok = failed == 0 && metrics.values.forall(m => !m.value.isNaN && !m.value.isInfinite)
    val body = metrics.map { case (n, m) =>
      s""""$n": {"value": ${m.value}, "unit": "${m.unit}", "kind": "${if (m.e2e) "e2e" else "layer"}"}"""
    }.mkString(", ")
    s"""{"correct": $ok, "attempted": $attempted, "failed": $failed, "metrics": {$body}}"""
  }
}
