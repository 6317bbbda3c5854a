package repro.rmi

/** Ordinary least-squares line `y = slope·x + intercept`, the only model
  * type used by LIDER's simplified RMI (paper §5.2: linear regressions
  * everywhere, no neural net, no hybrid B-tree fallback).
  */
final case class LinearModel(slope: Double, intercept: Double) {
  def predict(x: Double): Double = slope * x + intercept
}

object LinearModel {

  /** Full-batch epochs of [[fitSGD]]. */
  val SgdEpochs = 300

  /** [[fitSGD]]'s fixed learning rate, tuned for re-scaled keys. */
  val SgdRate = 1e-7

  /** Closed-form OLS fit. Degenerate inputs (no x-variance, or fewer than
    * two points) fall back to a constant model at the mean label, which is
    * exactly the best linear predictor in those cases.
    */
  def fit(xs: Array[Double], ys: Array[Double]): LinearModel = {
    require(xs.length == ys.length, "xs/ys length mismatch")
    val n = xs.length
    if (n == 0) return LinearModel(0.0, 0.0)
    var sx = 0.0; var sy = 0.0
    var i = 0
    while (i < n) { sx += xs(i); sy += ys(i); i += 1 }
    val mx = sx / n; val my = sy / n
    var sxx = 0.0; var sxy = 0.0
    i = 0
    while (i < n) {
      val dx = xs(i) - mx
      sxx += dx * dx
      sxy += dx * (ys(i) - my)
      i += 1
    }
    if (sxx <= 1e-300) LinearModel(0.0, my)
    else {
      val slope = sxy / sxx
      LinearModel(slope, my - slope * mx)
    }
  }

  /** Full-batch gradient-descent fit with a *fixed* learning rate, mirroring
    * how learned-index models are actually trained (the original RMI trains
    * its models by gradient-based optimization). This trainer is what makes
    * the paper's §5.1/§7.4 key re-scaling observable: OLS is
    * affine-equivariant, so re-scaling cannot change exact closed-form
    * predictions — but gradient descent with hyperparameters tuned for
    * re-scaled keys (x ∈ [0, L−1]) *diverges* on raw multi-million decimal
    * hashkeys, producing exactly the out-of-range predictions Table 4
    * counts. Divergence is allowed to happen (that is the phenomenon);
    * the loop only stops early once parameters go non-finite. It runs
    * [[SgdEpochs]] epochs at the rate [[SgdRate]].
    */
  def fitSGD(xs: Array[Double], ys: Array[Double]): LinearModel = {
    require(xs.length == ys.length, "xs/ys length mismatch")
    val n = xs.length
    if (n == 0) return LinearModel(0.0, 0.0)
    var a = 0.0; var b = 0.0
    var e = 0
    var finite = true
    while (e < SgdEpochs && finite) {
      var ga = 0.0; var gb = 0.0
      var i = 0
      while (i < n) {
        val err = a * xs(i) + b - ys(i)
        ga += err * xs(i)
        gb += err
        i += 1
      }
      val na = a - SgdRate * 2.0 * ga / n
      val nb = b - SgdRate * 2.0 * gb / n
      if (java.lang.Double.isFinite(na) && java.lang.Double.isFinite(nb)) { a = na; b = nb }
      else finite = false
      e += 1
    }
    LinearModel(a, b)
  }
}
