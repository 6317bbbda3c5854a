package repro.linalg

/** Integer-id primitives shared by LIDER and its baselines: grouping
  * indices by bucket (k-means members, inverted lists, RMI leaves, the
  * DSv2 planner's (query, target cluster) pairs) and first-seen dedupe of
  * candidate lists (ESK-LSH arrays, multi-probe buckets, which are runs of
  * one key in ESK-LSH's sorted arrays).
  */
object IdOps {

  /** The indices `i` of `bucketOf` grouped by `bucketOf(i)`, a bucket in
    * `0 until buckets`: element `b` holds bucket `b`'s indices in ascending
    * order, and is empty when none maps to `b`. One counting pass sizes
    * every bucket, one placing pass fills them.
    */
  def group(bucketOf: Array[Int], buckets: Int): Array[Array[Int]] = {
    val fill = new Array[Int](buckets)
    var i = 0
    while (i < bucketOf.length) { fill(bucketOf(i)) += 1; i += 1 }
    val out = Array.tabulate(buckets)(b => new Array[Int](fill(b)))
    java.util.Arrays.fill(fill, 0)
    i = 0
    while (i < bucketOf.length) {
      val b = bucketOf(i)
      out(b)(fill(b)) = i; fill(b) += 1
      i += 1
    }
    out
  }

  /** The ids of `lists` in first-seen order, each once. Ids lie in
    * `0 until universe`, so one bit per id marks it seen.
    */
  def distinct(lists: Array[Array[Int]], universe: Int): Array[Int] = {
    var raw = 0
    var h = 0
    while (h < lists.length) { raw = math.min(universe, raw + lists(h).length); h += 1 }
    val seen = new Array[Long]((universe + 63) >>> 6)
    val out = new Array[Int](raw)
    var n = 0
    h = 0
    while (h < lists.length) {
      val a = lists(h)
      var i = 0
      while (i < a.length) {
        val id = a(i)
        val bit = 1L << id // the shift takes id mod 64
        if ((seen(id >>> 6) & bit) == 0) { seen(id >>> 6) |= bit; out(n) = id; n += 1 }
        i += 1
      }
      h += 1
    }
    java.util.Arrays.copyOf(out, n)
  }
}
