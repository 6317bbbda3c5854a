package repro.core

import repro.linalg.VecOps

/** Top-k selection shared by the verification step of every index and by
  * LIDER's final merge stage (§6.2). Ordering is by descending score, ties
  * broken by ascending id so every caller is deterministic.
  */
object TopK {

  /** Best first: `-score` then `id`, each by its Java total order, which is
    * `Ordering.by(s => (-s.score, s.id))` without a tuple per comparison
    * (NaN scores rank last, `0.0` before `-0.0`).
    */
  val ordering: Ordering[Scored] = (a: Scored, b: Scored) => compare(a.id, a.score, b)

  private def compare(id: Long, score: Double, b: Scored): Int = {
    val c = java.lang.Double.compare(-score, -b.score)
    if (c != 0) c else java.lang.Long.compare(id, b.id)
  }

  /** Bounded collector of the best k `(id, score)` pairs it is offered. A
    * `Scored` is allocated only when a pair enters the heap.
    */
  final class Collector(k: Int) {
    require(k > 0, s"k must be positive, got $k")
    private val heap = new java.util.PriorityQueue[Scored](ordering.reverse) // worst on top

    def offer(id: Long, score: Double): Unit =
      if (heap.size < k) heap.offer(Scored(id, score))
      else if (compare(id, score, heap.peek()) < 0) { heap.poll(); heap.offer(Scored(id, score)) }

    /** The kept hits, best first; empties the collector. */
    def result(): Array[Scored] = {
      val out = new Array[Scored](heap.size)
      var j = out.length - 1
      while (j >= 0) { out(j) = heap.poll(); j -= 1 }
      out
    }
  }

  /** Exact verification (§3.3.1 step 5): scores rows `candidates` of
    * `vectors` against `q` by inner product and keeps the best k.
    */
  def verify(
      q: Array[Float],
      vectors: Array[Array[Float]],
      ids: Array[Long],
      candidates: Array[Int],
      k: Int): Array[Scored] = {
    val top = new Collector(k)
    var i = 0
    while (i < candidates.length) {
      val c = candidates(i)
      top.offer(ids(c), VecOps.dot(q, vectors(c)))
      i += 1
    }
    top.result()
  }

  /** k-way merge of per-cluster result lists, each already sorted
    * descending — the paper's stage-3 heap over the c0 list heads
    * (§6.2, O(c0 + k·log c0)).
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
