package repro.perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** A reading of the process-wide JVM counters the benchmark reports:
  * bytes allocated by all live threads, collections, and JIT time.
  */
final case class JvmSnapshot(allocBytes: Long, gcCount: Long, gcMillis: Long, jitMillis: Long) {
  def -(o: JvmSnapshot): JvmSnapshot =
    JvmSnapshot(allocBytes - o.allocBytes, gcCount - o.gcCount, gcMillis - o.gcMillis, jitMillis - o.jitMillis)
}

object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val compiler = ManagementFactory.getCompilationMXBean

  def snapshot(): JvmSnapshot = {
    val alloc = threads.getThreadAllocatedBytes(threads.getAllThreadIds).iterator.filter(_ > 0).sum
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    JvmSnapshot(alloc,
      gcs.iterator.map(g => math.max(0L, g.getCollectionCount)).sum,
      gcs.iterator.map(g => math.max(0L, g.getCollectionTime)).sum,
      compiler.getTotalCompilationTime)
  }

  def jitMillis(): Long = compiler.getTotalCompilationTime

  /** Heap in use after full collections. */
  def heapUsedAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Calls `runSlice(sliceNanos)` until the JIT is done with it: a slice
    * that adds under one millisecond of compile time, twice in a row,
    * after at least `minMillis`. Gives up at `maxMillis` and says so.
    * Returns the warm-up length in seconds.
    */
  def warmUntilJitSettles(minMillis: Long, maxMillis: Long, sliceMillis: Long)(runSlice: Long => Unit): Double = {
    val start = System.nanoTime()
    def elapsedMs = (System.nanoTime() - start) / 1_000_000L
    var quiet = 0
    var last = jitMillis()
    while ((quiet < 2 || elapsedMs < minMillis) && elapsedMs < maxMillis) {
      runSlice(sliceMillis * 1_000_000L)
      val now = jitMillis()
      quiet = if (now - last < 1) quiet + 1 else 0
      last = now
    }
    if (quiet < 2) Console.err.println(s"[perfbench] warning: JIT still compiling after ${maxMillis} ms of warm-up")
    (System.nanoTime() - start) / 1e9
  }
}

/** Host-speed probe: a fixed dot-product kernel over two 256-float arrays
  * (2 KiB, resident in L1). Its rate moves only with the host — CPU
  * frequency, co-tenants — so a slow run can be told apart from slow code.
  */
object HostProbe {
  private val a = Array.tabulate(256)(i => ((i * 37) % 101) / 101f)
  private val b = Array.tabulate(256)(i => ((i * 53) % 97) / 97f)
  @volatile private var sink = 0.0

  private def kernel(): Double = {
    var s = 0.0
    var i = 0
    while (i < 256) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Thousands of kernel calls per second over `millis`. */
  def kopsPerSecond(millis: Long = 200): Double = {
    val warmEnd = System.nanoTime() + 50_000_000L
    while (System.nanoTime() < warmEnd) sink += kernel()
    val start = System.nanoTime()
    val end = start + millis * 1_000_000L
    var calls = 0L
    var acc = 0.0
    while (System.nanoTime() < end) {
      var j = 0
      while (j < 1000) { acc += kernel(); j += 1 }
      calls += 1000
    }
    sink += acc
    calls / ((System.nanoTime() - start) / 1e9) / 1000.0
  }
}

object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Nearest-rank percentile of the first `n` entries of `xs` (sorted in place). */
  def percentile(xs: Array[Long], n: Int, pct: Double): Long = {
    require(n > 0, "percentile of nothing")
    java.util.Arrays.sort(xs, 0, n)
    val rank = math.ceil(pct / 100.0 * n).toInt
    xs(math.min(n - 1, math.max(0, rank - 1)))
  }

  /** The highest of `wanted` and the standard lower percentiles that
    * leaves at least ten of `n` samples above it.
    */
  def supportedPercentile(n: Int, wanted: Double): Double =
    (Seq(wanted) ++ Seq(99.0, 95.0, 90.0, 75.0).filter(_ < wanted))
      .find(p => n * (1 - p / 100.0) >= 10).getOrElse(50.0)
}
