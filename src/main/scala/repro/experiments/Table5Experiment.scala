package repro.experiments

import repro.baselines.SKLSH
import repro.core.{IndexFootprint, Lider}
import repro.esklsh.ESKLSH
import repro.retrieval._

/** Table 5 (paper §7.6): construction time of LIDER's three stages and
  * the index memory after each stage, vs the original SK-LSH, on the two
  * largest datasets. Memory is exact byte accounting of the index
  * structures (excluding corpus embeddings, as the paper does) — see
  * [[IndexFootprint]] for why we account rather than sample the heap.
  */
final case class Table5Col(
    dataset: String,
    stage1Millis: Double, // clustering
    stage2Millis: Double, // centroids retriever
    stage3Millis: Double, // all in-cluster retrievers
    memAfterStage1: Long, // centroid vectors only
    memAfterStage2: Long, // + centroids retriever
    memAfterStage3: Long, // + in-cluster retrievers (full LIDER)
    sklshMillis: Double,
    sklshBytes: Long)

final case class Table5Result(cols: Seq[Table5Col]) {
  def col(dataset: String): Table5Col = cols.find(_.dataset == dataset).get
  def render: String = {
    def mb(b: Long): String = f"${b / 1024.0 / 1024.0}%.1fMB"
    val sb = new StringBuilder
    sb.append("== Table 5: construction time and index memory ==\n")
    sb.append(("" +: cols.flatMap(c => Seq(s"${c.dataset} Time", s"${c.dataset} Memory"))).mkString("\t")).append('\n')
    sb.append(("LIDER Stage 1 - Clustering" +:
      cols.flatMap(c => Seq(f"${c.stage1Millis / 1000}%.1fs", mb(c.memAfterStage1)))).mkString("\t")).append('\n')
    sb.append(("LIDER Stage 2 - Building CR" +:
      cols.flatMap(c => Seq(f"${c.stage2Millis / 1000}%.2fs", mb(c.memAfterStage2)))).mkString("\t")).append('\n')
    sb.append(("LIDER Stage 3 - Building all IRs" +:
      cols.flatMap(c => Seq(f"${c.stage3Millis / 1000}%.1fs", mb(c.memAfterStage3)))).mkString("\t")).append('\n')
    sb.append(("SK-LSH" +:
      cols.flatMap(c => Seq(f"${c.sklshMillis / 1000}%.1fs", mb(c.sklshBytes)))).mkString("\t")).append('\n')
    sb.toString
  }
}

object Table5Experiment {

  def run(
      datasetLabels: Seq[String] = Seq("MS-8.8M", "Wiki-21M"),
      dim: Int = Scaled.Dim,
      log: String => Unit = s => Console.err.println(s)): Table5Result = {
    val cols = datasetLabels.map { label =>
      val spec = Scaled.dataset(label)
      log(s"[table5] generating $label (n=${spec.n})")
      val corpus = RetrievalData.corpus(spec.n, dim, spec.seed)

      val (lider, stats) = Lider.build(corpus.vectors, corpus.ids, Scaled.liderParams(spec.n))
      val memStage1 = lider.centroidsRetriever.size.toLong * dim * 4L
      val memStage2 = memStage1 + IndexFootprint.coreModelBytes(lider.centroidsRetriever)
      val memStage3 = IndexFootprint.liderBytes(lider)

      val t0 = System.nanoTime()
      val sklsh = SKLSH.build(corpus.vectors, corpus.ids,
        Scaled.lshTables(label), ESKLSH.keyLenFor(spec.n))
      val sklshMs = (System.nanoTime() - t0) / 1e6
      val sklshBytes = IndexFootprint.esklshBytes(sklsh.esklsh)

      val col = Table5Col(label,
        stats.clusteringNanos / 1e6, stats.centroidRetrieverNanos / 1e6, stats.inClusterNanos / 1e6,
        memStage1, memStage2, memStage3, sklshMs, sklshBytes)
      log(f"[table5] $label lider=(${col.stage1Millis}%.0f, ${col.stage2Millis}%.0f, ${col.stage3Millis}%.0f)ms " +
        f"mem=${memStage3 / 1048576.0}%.1fMB sklsh=${sklshMs}%.0fms/${sklshBytes / 1048576.0}%.1fMB")
      col
    }
    Table5Result(cols)
  }
}
