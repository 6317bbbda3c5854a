package repro.core

import repro.linalg.VecOps

/** Top-k selection shared by the verification step of every index,
  * LIDER's single selection across its target clusters included (§6.2).
  * Ordering is by descending score, ties broken by ascending id so every
  * caller is deterministic.
  */
object TopK {

  /** Best first: `-score` then `id`, each by its Java total order, which is
    * `Ordering.by(s => (-s.score, s.id))` without a tuple per comparison
    * (NaN scores rank last, `0.0` before `-0.0`).
    */
  val ordering: Ordering[Scored] = (a: Scored, b: Scored) => compare(a.id, a.score, b.id, b.score)

  private def compare(id: Long, score: Double, otherId: Long, otherScore: Double): Int = {
    val c = java.lang.Double.compare(-score, -otherScore)
    if (c != 0) c else java.lang.Long.compare(id, otherId)
  }

  /** Bounded collector of the best k `(id, score)` pairs it is offered: a
    * binary heap over two primitive arrays, worst hit at the root, ordered
    * by [[ordering]]. Offers allocate nothing; a `Scored` is allocated only
    * in [[result]]. Not thread-safe.
    */
  final class Collector(k: Int) {
    require(k > 0, s"k must be positive, got $k")
    private var ids = new Array[Long](math.min(k, InitialCapacity))
    private var scores = new Array[Double](ids.length)
    private var size = 0

    def offer(id: Long, score: Double): Unit =
      if (size < k) {
        if (size == ids.length) grow()
        siftUp(size, id, score)
        size += 1
      } else if (before(id, score, 0)) siftDown(0, id, score)

    /** Offers `(rowIds(rows(i)), rowScores(i))` for every
      * `i < rowScores.length`; `rows == null` stands for the rows
      * `0 until rowScores.length`.
      */
    def offerAll(rowIds: Array[Long], rows: Array[Int], rowScores: Array[Double]): Unit = {
      var i = 0
      if (rows == null) while (i < rowScores.length) { offer(rowIds(i), rowScores(i)); i += 1 }
      else while (i < rowScores.length) { offer(rowIds(rows(i)), rowScores(i)); i += 1 }
    }

    /** The kept hits, best first; empties the collector. */
    def result(): Array[Scored] = {
      val out = new Array[Scored](size)
      while (size > 0) {
        out(size - 1) = Scored(ids(0), scores(0))
        size -= 1
        if (size > 0) siftDown(0, ids(size), scores(size))
      }
      out
    }

    /** Whether `(id, score)` ranks strictly before the hit at slot `i`. */
    private def before(id: Long, score: Double, i: Int): Boolean = compare(id, score, ids(i), scores(i)) < 0

    /** Places `(id, score)` at slot `hole` or above it, moving every better
      * ancestor down one level.
      */
    private def siftUp(hole: Int, id: Long, score: Double): Unit = {
      var i = hole
      var p = (i - 1) >>> 1
      while (i > 0 && !before(id, score, p)) {
        ids(i) = ids(p); scores(i) = scores(p)
        i = p
        p = (i - 1) >>> 1
      }
      ids(i) = id; scores(i) = score
    }

    /** Places `(id, score)` at slot `hole` or below it, moving the worse
      * child up while the new hit ranks before it.
      */
    private def siftDown(hole: Int, id: Long, score: Double): Unit = {
      var i = hole
      var c = 2 * i + 1
      while (c < size) {
        if (c + 1 < size && compare(ids(c + 1), scores(c + 1), ids(c), scores(c)) > 0) c += 1
        if (before(id, score, c)) {
          ids(i) = ids(c); scores(i) = scores(c)
          i = c
          c = 2 * i + 1
        } else c = size // the hole is the place
      }
      ids(i) = id; scores(i) = score
    }

    private def grow(): Unit = {
      val cap = math.min(k.toLong, 2L * ids.length).toInt
      ids = java.util.Arrays.copyOf(ids, cap)
      scores = java.util.Arrays.copyOf(scores, cap)
    }
  }

  /** A collector's arrays start at this many slots (or k, if smaller) and
    * double up to k, so a large k costs nothing until hits arrive.
    */
  private val InitialCapacity = 1024

  /** Scores of rows `candidates` of `vectors` against `q` by inner
    * product, in candidate order; `candidates == null` scores every row in
    * place. Scores come from [[VecOps.dots]], four rows per pass, with the
    * bits of one [[VecOps.dot]] per row.
    */
  def scores(q: Array[Float], vectors: Array[Array[Float]], candidates: Array[Int]): Array[Double] = {
    val rows =
      if (candidates == null) vectors
      else {
        val gathered = new Array[Array[Float]](candidates.length)
        var i = 0
        while (i < gathered.length) { gathered(i) = vectors(candidates(i)); i += 1 }
        gathered
      }
    val out = new Array[Double](rows.length)
    VecOps.dots(q, rows, rows.length, out)
    out
  }

  /** Exact verification (§3.3.1 step 5): scores rows `candidates` of
    * `vectors` against `q` by inner product ([[scores]]; `null` verifies
    * every row) and keeps the best k.
    */
  def verify(
      q: Array[Float],
      vectors: Array[Array[Float]],
      ids: Array[Long],
      candidates: Array[Int],
      k: Int): Array[Scored] = {
    val top = new Collector(k)
    top.offerAll(ids, candidates, scores(q, vectors, candidates))
    top.result()
  }

  /** k-way merge of per-cluster result lists, each already sorted
    * descending — the paper's stage-3 heap over the c0 list heads
    * (§6.2, O(c0 + k·log c0)). Not on [[Lider.search]]'s path, which
    * offers every cluster's scored candidates to one [[Collector]] and gets
    * the same hits; it serves callers that compose a query from
    * per-cluster [[CoreModel.verify]] calls, as perfbench's replay does.
    */
  def mergeSorted(lists: Array[Array[Scored]], k: Int): Array[Scored] = {
    final case class Head(listIdx: Int, pos: Int, value: Scored)
    val heap = new java.util.PriorityQueue[Head](
      math.max(1, lists.length),
      (a: Head, b: Head) => ordering.compare(a.value, b.value))
    var li = 0
    while (li < lists.length) {
      if (lists(li).nonEmpty) heap.offer(Head(li, 0, lists(li)(0)))
      li += 1
    }
    val out = new scala.collection.mutable.ArrayBuffer[Scored](k)
    val seen = new java.util.HashSet[Long]()
    while (out.length < k && !heap.isEmpty) {
      val h = heap.poll()
      // A passage can only live in one cluster, but the guard keeps the
      // merge safe for callers that feed overlapping lists.
      if (seen.add(h.value.id)) out += h.value
      val next = h.pos + 1
      if (next < lists(h.listIdx).length) heap.offer(Head(h.listIdx, next, lists(h.listIdx)(next)))
    }
    out.toArray
  }
}
