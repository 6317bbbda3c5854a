package repro.core

/** Common interface of every ANN method in the Table 2 comparison —
  * LIDER and the eight baselines of paper §7.1.2. All scores are inner
  * products over L2-normalized embeddings (≡ cosine), matching the
  * paper's normalization trick.
  */
trait AnnIndex {
  /** Method name as it appears in the paper's tables. */
  def name: String

  /** Top-k most similar passages to `q`, sorted descending by score. */
  def search(q: Array[Float], k: Int): Array[Scored]
}
