package repro.linalg

import java.util.stream.IntStream

/** Tiny wrappers over Java parallel streams used by the in-memory index
  * code paths (LIDER's between-cluster / between-array parallelism and the
  * bulk phases of baseline index builds). Spark handles the distributed
  * dataflow; this is the intra-JVM parallelism the paper attributes to
  * "enough CPU cores" (§4.3).
  */
object Parallel {

  /** Parallel `Array.tabulate` over [0, n). `f` must be thread-safe. */
  def tabulate[T](n: Int)(f: Int => T)(implicit ct: scala.reflect.ClassTag[T]): Array[T] = {
    val out = new Array[T](n)
    IntStream.range(0, n).parallel().forEach(i => out(i) = f(i))
    out
  }

  /** Parallel foreach over [0, n). `f` must be thread-safe. */
  def foreachRange(n: Int)(f: Int => Unit): Unit =
    IntStream.range(0, n).parallel().forEach(i => f(i))
}
