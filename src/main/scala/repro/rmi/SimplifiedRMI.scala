package repro.rmi

import repro.linalg.IdOps

/** Simplified recursive-model index (paper §5.2).
  *
  * Two layers, both plain linear regressions: one root model and `width`
  * second-layer (leaf) models. Training follows the original RMI recipe —
  * the root is fitted on all (key, position) pairs, then each training
  * point is routed to the leaf whose subspace contains the *root's
  * prediction* for it, and each leaf is fitted on the points routed to it.
  * Prediction retraces the same routing. No hybrid B-tree fallback and no
  * neural net, per the paper.
  *
  * Keys must be ascending (they are positions' keys of a sorted hashkey
  * array, re-scaled monotonically); positions are implicitly `0 … n−1`.
  */
final case class SimplifiedRMI(root: LinearModel, leaves: Array[LinearModel], n: Long) {
  /** Raw (unclamped) predicted position, which [[predict]] truncates. */
  def predictRaw(key: Double): Double = leaves(SimplifiedRMI.leafOf(root, leaves.length, n, key)).predict(key)

  /** Predicted position truncated to `[0, n−1]` (paper §7.4: "RMI will
    * truncate big prediction to L_array−1 and round negative prediction
    * to 0").
    */
  def predict(key: Double): Long = {
    val p = math.rint(predictRaw(key)).toLong
    math.min(n - 1, math.max(0L, p))
  }
}

object SimplifiedRMI {

  /** Trains the two-layer RMI on ascending `keys` with labels `0 … n−1`.
    *
    * @param width  number of second-layer models (paper's W_c / W_i), at least 1
    * @param useSgd train every linear model by fixed-rate gradient descent
    *               instead of closed-form OLS — the trainer under which the
    *               paper's key re-scaling ablation (Table 4) is observable,
    *               and which only that ablation uses; see [[LinearModel.fitSGD]]
    */
  def fit(keys: Array[Double], width: Int, useSgd: Boolean = false): SimplifiedRMI = {
    require(keys.nonEmpty, "RMI needs training keys")
    require(width >= 1, s"RMI width = $width: an RMI needs at least one second-layer model")
    val n = keys.length
    val positions = Array.tabulate(n)(_.toDouble)
    def train(xs: Array[Double], ys: Array[Double]): LinearModel =
      if (useSgd) LinearModel.fitSGD(xs, ys) else LinearModel.fit(xs, ys)
    val root = train(keys, positions)

    val buckets = IdOps.group(Array.tabulate(n)(i => leafOf(root, width, n, keys(i))), width)
    val leaves = Array.tabulate(width) { j =>
      val idx = buckets(j)
      if (idx.isEmpty) root // unreached leaf: inherit the root model
      else train(idx.map(keys), idx.map(positions))
    }
    SimplifiedRMI(root, leaves, n.toLong)
  }

  /** The leaf of `width` that routes `key`: the root's predicted position,
    * scaled from `[0, n)` to `[0, width)` and clamped. Training and
    * prediction both route through it.
    */
  private def leafOf(root: LinearModel, width: Int, n: Long, key: Double): Int = {
    val j = math.floor(root.predict(key) * width / n.toDouble).toInt
    math.min(width - 1, math.max(0, j))
  }
}
