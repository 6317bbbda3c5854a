package repro.retrieval

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite

/** Pins the exact top-k of LIDER and every baseline: ids and raw score
  * bits of 100 queries at k ∈ {1, 10, 100} on a seeded 3k corpus, hashed
  * per method. A change that moves any id, rank or score bit fails here;
  * one that does so on purpose must re-record the digests and say why.
  */
class GoldenTopKSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(3000, Scaled.Dim, seed = 23)
  private lazy val queries = RetrievalData.pointTask(corpus, 100, seed = 24).queries
  private val ks = Seq(1, 10, 100)

  /** First 16 hex digits of SHA-256 over (length, then id and raw score
    * bits of every hit) of each query's result, for k = 1, 10, 100.
    */
  private val expected: Map[String, Seq[String]] = Map(
    "Flat" -> Seq("acbafb5a4a4ed44e", "19863888724a969f", "72b775320a81406b"),
    "PQ" -> Seq("f640aa3e10cd145e", "4b7b3bb5d2601adc", "a038e4e9f0de40fc"),
    "OPQ" -> Seq("559e1eec977d24f2", "1af1622739a15ac1", "2269d2d51166f414"),
    "PCA-PQ" -> Seq("758a9f140edb6004", "e89fbab0af837b8c", "371909edb2ee9dad"),
    "IVFPQ" -> Seq("e141523bf25f0711", "b7da87e34a1c6e55", "d45b18412347f941"),
    "IVFPQ-HNSW" -> Seq("e141523bf25f0711", "b7da87e34a1c6e55", "d45b18412347f941"),
    "FALCONN" -> Seq("acbafb5a4a4ed44e", "33760a592a41799f", "ef24ee37f2b4428e"),
    "SK-LSH" -> Seq("0ca1c5786a22d769", "aa091baf28464ccc", "090ebd34724f46b0"),
    "LIDER" -> Seq("336c683edf1864a6", "f30966a908e0bb45", "7ae5f50677807d43"))

  private def digest(index: repro.baselines.AnnIndex, k: Int): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(16)
    queries.foreach { q =>
      val hits = index.search(q, k)
      buf.clear(); buf.putLong(hits.length.toLong); md.update(buf.array(), 0, 8)
      hits.foreach { h =>
        buf.clear()
        buf.putLong(h.id).putLong(java.lang.Double.doubleToRawLongBits(h.score))
        md.update(buf.array())
      }
    }
    md.digest().take(8).map(b => f"${b & 0xff}%02x").mkString
  }

  Scaled.Methods.foreach { method =>
    test(s"golden top-k digest: $method") {
      val index = Scaled.buildIndex(method, corpus, "MS-500k")
      val got = ks.map(k => digest(index, k))
      assert(got == expected(method), s"$method digests for k = ${ks.mkString(", ")}")
    }
  }
}
