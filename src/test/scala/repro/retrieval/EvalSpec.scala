package repro.retrieval

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.Flat
import repro.core.{Lider, LiderParams}

class EvalSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(1500, 24, seed = 19)
  private lazy val flat = new Flat(corpus.vectors, corpus.ids)

  test("run produces one ranking per query and a positive AQT") {
    val task = RetrievalData.pointTask(corpus, 20, seed = 1)
    val r = Eval.run(flat, task.queries, 10)
    assert(r.results.length == 20)
    assert(r.results.forall(_.length == 10))
    assert(r.aqtMillis > 0.0)
  }

  test("Flat achieves solid MRR on the synthetic point task (quality upper bound)") {
    // The query set spans a difficulty spectrum by design (see
    // RetrievalData.QuerySigmaMax), so even exact search tops out well
    // below 1.0 — like the paper's Flat rows.
    val task = RetrievalData.pointTask(corpus, 100, seed = 2)
    val (mrr, _) = Eval.pointScore(flat, task, 10)
    assert(mrr > 0.3, s"flat mrr=$mrr")
  }

  test("Flat achieves high NDCG on the graded task") {
    val task = RetrievalData.gradedTask(corpus, seed = 19)
    val (ndcg, _) = Eval.gradedScore(flat, task, 10)
    assert(ndcg > 0.5, s"flat ndcg=$ndcg")
  }

  test("LIDER quality on the point task is within reach of Flat (shape sanity)") {
    val task = RetrievalData.pointTask(corpus, 80, seed = 3)
    val (flatMrr, _) = Eval.pointScore(flat, task, 10)
    val (lider, _) = Lider.build(corpus.vectors, corpus.ids,
      LiderParams(c = 10, c0 = 4, kmeansSample = 1500))
    assert(lider.name == "LIDER")
    val (liderMrr, _) = Eval.pointScore(lider, task, 10)
    assert(liderMrr > flatMrr * 0.5, s"lider=$liderMrr flat=$flatMrr")
  }
}
