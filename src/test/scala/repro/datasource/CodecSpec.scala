package repro.datasource

import java.io._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CoreModel, CoreModelParams}
import repro.retrieval.RetrievalData

class CodecSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(600, 16, seed = 71)
  private lazy val cm = CoreModel.build(corpus.vectors, corpus.ids,
    CoreModelParams(numArrays = 5, rmiWidth = 4, b = 3, r0 = 3))

  private def encode(model: CoreModel): Array[Byte] = {
    val buf = new ByteArrayOutputStream()
    CoreModelCodec.write(model, new DataOutputStream(buf))
    buf.toByteArray
  }

  private def decode(bytes: Array[Byte]): CoreModel =
    CoreModelCodec.read(new DataInputStream(new ByteArrayInputStream(bytes)), bytes.length)

  private def roundTrip(model: CoreModel): CoreModel = decode(encode(model))

  test("round-trip preserves sizes and parameters") {
    val got = roundTrip(cm)
    assert(got.size == cm.size)
    assert(got.esklsh.numArrays == cm.esklsh.numArrays)
    assert(got.esklsh.keyLen == cm.esklsh.keyLen)
    assert(got.esklsh.b == cm.esklsh.b)
    assert(got.r0 == cm.r0)
    assert(got.rescaleKeys == cm.rescaleKeys)
  }

  test("round-trip preserves vectors and ids bit-exactly") {
    val got = roundTrip(cm)
    assert(got.globalIds.toSeq == cm.globalIds.toSeq)
    assert(got.vectors.zip(cm.vectors).forall { case (a, b) => a.sameElements(b) })
  }

  test("round-trip preserves sorted arrays") {
    val got = roundTrip(cm)
    for (h <- 0 until cm.esklsh.numArrays) {
      val (a, b) = (got.esklsh.arrays(h), cm.esklsh.arrays(h))
      assert(a.length == b.length)
      for (i <- 0 until b.length) assert(a.entry(i) == b.entry(i), s"array $h, position $i")
    }
  }

  test("round-trip preserves RMI and rescaler parameters") {
    val got = roundTrip(cm)
    for (h <- 0 until cm.esklsh.numArrays) {
      assert(got.rescalers(h) == cm.rescalers(h))
      assert(got.rmis(h).root == cm.rmis(h).root)
      assert(got.rmis(h).leaves.toSeq == cm.rmis(h).leaves.toSeq)
      assert(got.rmis(h).n == cm.rmis(h).n)
    }
  }

  test("a decoded model answers queries identically") {
    val got = roundTrip(cm)
    for (i <- 0 until 20) {
      val q = corpus.vectors(i * 7)
      assert(got.search(q, 10).toSeq == cm.search(q, 10).toSeq)
    }
  }

  test("non-rescaled (ablation) models survive the round-trip") {
    val raw = CoreModel.build(corpus.vectors, corpus.ids,
      CoreModelParams(numArrays = 2, rescaleKeys = false))
    val got = roundTrip(raw)
    assert(!got.rescaleKeys)
    assert(got.search(corpus.vectors(0), 5).toSeq == raw.search(corpus.vectors(0), 5).toSeq)
  }

  test("garbage input is rejected by the magic check") {
    val bytes = Array.fill[Byte](64)(42)
    intercept[IllegalArgumentException](decode(bytes))
  }

  test("a version-1 file fails with an IllegalArgumentException naming the version and asking for a rebuild") {
    val bytes = encode(cm)
    java.nio.ByteBuffer.wrap(bytes).putInt(4, 1)
    val e = intercept[IllegalArgumentException](decode(bytes))
    assert(e.getMessage.contains("version 1") && e.getMessage.contains("rebuild the index"), e.getMessage)
  }

  test("bytes cut off inside the array section raise an exception, never a model") {
    val bytes = encode(cm)
    val (n, dim, esk) = (cm.size, cm.esklsh.lsh.dim, cm.esklsh)
    val arraysStart = 8 * 4 + 1 + n * dim * 4 + n * 8 + esk.numArrays * esk.keyLen * dim * 4
    val ends = esk.arrays.scanLeft(arraysStart.toLong)(_ + _.sizeBytes).map(_.toInt)
    val tail = cm.rmis.map(r => 16 + 4 + 16 * r.leaves.length + 8).sum + esk.numArrays * 24
    assert(bytes.length == ends.last + tail, "the layout the cuts are placed by")
    val cuts = ends.init.flatMap(e => Seq(e, e + 1, e + 7, e + 8, e + 13)) :+ (ends.last - 1)
    for (cut <- cuts)
      intercept[java.io.EOFException](decode(java.util.Arrays.copyOf(bytes, cut)))
  }

  test("a file whose sorted-array entries exceed 63 bits fails at load, naming M and n") {
    // n = 3 takes 2 id bits, so the widest key is M = 61; this file has 62.
    val buf = new ByteArrayOutputStream()
    val out = new DataOutputStream(buf)
    out.write(encode(cm), 0, 8) // magic and version
    Seq(3, 1, 1, 62, 3, 3).foreach(out.writeInt) // n, dim, H, M, b, r0
    out.writeBoolean(true)
    Seq(1f, -1f, 0.5f).foreach(out.writeFloat) // vectors
    Seq(0L, 1L, 2L).foreach(out.writeLong) // global ids
    Seq.fill(62)(1f).foreach(out.writeFloat) // planes
    Seq.fill(3)(0L).foreach(out.writeLong) // 3 · 64 bits of entries
    val e = intercept[IllegalArgumentException](decode(buf.toByteArray))
    assert(e.getMessage.contains("M = 62 does not fit n = 3") && e.getMessage.contains("[1, 61]"), e.getMessage)
  }

  test("a count field set negative or huge fails with an IllegalArgumentException naming it, never a model or an OOM") {
    val bytes = encode(cm)
    val (n, dim, esk) = (cm.size, cm.esklsh.lsh.dim, cm.esklsh)
    val arraysStart = 8 * 4 + 1 + n * dim * 4 + n * 8 + esk.numArrays * esk.keyLen * dim * 4
    val rmisStart = arraysStart + esk.arrays.map(_.sizeBytes).sum.toInt + esk.numArrays * 24
    // Each RMI: root (16 bytes), then W, then W leaves of 16 bytes and n.
    val wAt = cm.rmis.scanLeft(rmisStart)((at, r) => at + 16 + 4 + 16 * r.leaves.length + 8).init.map(_ + 16)
    val fields = Seq("n" -> 8, "dim" -> 12, "H" -> 16, "M" -> 20, "b" -> 24) ++ wAt.map("W" -> _)
    for ((at, w) <- wAt.zip(cm.rmis)) assert(java.nio.ByteBuffer.wrap(bytes).getInt(at) == w.leaves.length)
    for ((field, at) <- fields; bad <- Seq(-1, Int.MinValue, 1 << 20, Int.MaxValue)) {
      val corrupt = bytes.clone()
      java.nio.ByteBuffer.wrap(corrupt).putInt(at, bad)
      val e = intercept[IllegalArgumentException](decode(corrupt))
      assert(e.getMessage.contains(s"field $field = $bad "), e.getMessage)
    }
  }

  test("a file with r0 <= 0 fails with an IllegalArgumentException naming r0, never a model") {
    val bytes = encode(cm)
    assert(java.nio.ByteBuffer.wrap(bytes).getInt(28) == cm.r0) // after magic, version, n, dim, H, M, b
    for (bad <- Seq(0, -1, Int.MinValue)) {
      val corrupt = bytes.clone()
      java.nio.ByteBuffer.wrap(corrupt).putInt(28, bad)
      val e = intercept[IllegalArgumentException](decode(corrupt))
      assert(e.getMessage.contains(s"field r0 = $bad "), e.getMessage)
    }
  }
}
