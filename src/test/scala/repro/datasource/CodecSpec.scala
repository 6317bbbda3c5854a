package repro.datasource

import java.io._
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CoreModel, CoreModelParams}
import repro.lsh.RandomHyperplaneLSH
import repro.retrieval.RetrievalData

class CodecSpec extends AnyFunSuite {

  private lazy val corpus = RetrievalData.corpus(600, 16, seed = 71)
  private lazy val cm = CoreModel.build(corpus.vectors, corpus.ids,
    CoreModelParams(numArrays = 5, rmiWidth = 4, r0 = 3))

  /** The model's plane set, then the model: a centroid_model.bin. */
  private def encode(model: CoreModel): Array[Byte] = {
    val buf = new ByteArrayOutputStream()
    val out = new DataOutputStream(buf)
    CoreModelCodec.writePlanes(model.esklsh.lsh, out)
    CoreModelCodec.write(model, out)
    buf.toByteArray
  }

  private def decode(bytes: Array[Byte]): CoreModel = {
    val in = input(bytes)
    CoreModelCodec.read(in, bytes.length, CoreModelCodec.readPlanes(in, bytes.length))
  }

  private def input(bytes: Array[Byte]) = new DataInputStream(new ByteArrayInputStream(bytes))

  /** Bytes of `model`'s plane-set record: a 20-byte header, then H·M·dim floats. */
  private def planesLen(model: CoreModel): Int = {
    val lsh = model.esklsh.lsh
    20 + lsh.numKeys * lsh.keyLen * lsh.dim * 4
  }

  private def roundTrip(model: CoreModel): CoreModel = decode(encode(model))

  test("round-trip preserves sizes and parameters") {
    val got = roundTrip(cm)
    assert(got.size == cm.size)
    assert(got.esklsh.numArrays == cm.esklsh.numArrays)
    assert(got.esklsh.keyLen == cm.esklsh.keyLen)
    assert(got.r0 == cm.r0)
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

  test("a version-2 plane set or model record fails asking for a rebuild") {
    // Version 2 kept each model's planes inside its own record.
    for (at <- Seq(4, planesLen(cm) + 4)) {
      val bytes = encode(cm)
      java.nio.ByteBuffer.wrap(bytes).putInt(at, 2)
      val e = intercept[IllegalArgumentException](decode(bytes))
      assert(e.getMessage.contains("version 2") && e.getMessage.contains("rebuild the index"), e.getMessage)
    }
  }

  test("a version-3 plane set or model record fails asking for a rebuild") {
    // Version 3 stored each array's re-scaler and each RMI's n in the model record.
    for (at <- Seq(4, planesLen(cm) + 4)) {
      val bytes = encode(cm)
      java.nio.ByteBuffer.wrap(bytes).putInt(at, 3)
      val e = intercept[IllegalArgumentException](decode(bytes))
      assert(e.getMessage.contains("version 3") && e.getMessage.contains("rebuild the index"), e.getMessage)
    }
  }

  test("a version-4 plane set or model record fails asking for a rebuild") {
    // Version 4 stored ESK-LSH's window width b in the model record.
    for (at <- Seq(4, planesLen(cm) + 4)) {
      val bytes = encode(cm)
      java.nio.ByteBuffer.wrap(bytes).putInt(at, 4)
      val e = intercept[IllegalArgumentException](decode(bytes))
      assert(e.getMessage.contains("version 4") && e.getMessage.contains("rebuild the index"), e.getMessage)
    }
  }

  test("a plane set cut at each section boundary raises an EOFException, never a plane set") {
    val bytes = encode(cm).take(planesLen(cm))
    val lsh = cm.esklsh.lsh
    val functionBytes = lsh.keyLen * lsh.dim * 4
    // magic, version, dim, H and M, then each function's planes.
    val cuts = Seq(0, 4, 8, 12, 16) ++ (0 until lsh.numKeys).flatMap(h => Seq(20 + h * functionBytes, 20 + h * functionBytes + 5)) :+
      (bytes.length - 1)
    for (cut <- cuts)
      intercept[EOFException](CoreModelCodec.readPlanes(input(bytes.take(cut)), cut))
    val whole = CoreModelCodec.readPlanes(input(bytes), bytes.length)
    assert(whole.planes.map(_.map(_.toSeq).toSeq).toSeq == lsh.planes.map(_.map(_.toSeq).toSeq).toSeq)
  }

  test("a model whose H or M disagrees with its plane set fails with an IllegalArgumentException naming it") {
    val bytes = encode(cm).drop(planesLen(cm))
    val (dim, h, m) = (cm.esklsh.lsh.dim, cm.esklsh.numArrays, cm.esklsh.keyLen)
    for ((field, planes) <- Seq(
        "H" -> RandomHyperplaneLSH(dim, h - 1, m, 1), "H" -> RandomHyperplaneLSH(dim, h + 1, m, 1),
        "M" -> RandomHyperplaneLSH(dim, h, m - 1, 1))) {
      val e = intercept[IllegalArgumentException](CoreModelCodec.read(input(bytes), bytes.length, planes))
      assert(e.getMessage.contains(s"field $field = ${if (field == "H") h else m} "), e.getMessage)
    }
  }

  test("a model read over a longer plane set shares that set's leading planes by reference") {
    val longer = RandomHyperplaneLSH(cm.esklsh.lsh.dim, cm.esklsh.numArrays, cm.esklsh.keyLen + 3, seed = 5)
    val model = CoreModel.build(corpus.vectors, corpus.ids, CoreModelParams(numArrays = 5, rmiWidth = 4), Some(longer))
    val bytes = encode(model).drop(planesLen(model))
    val got = CoreModelCodec.read(input(bytes), bytes.length, longer)
    assert(got.esklsh.keyLen == model.esklsh.keyLen)
    for (h <- 0 until got.esklsh.numArrays; i <- 0 until got.esklsh.keyLen)
      assert(got.esklsh.lsh.planes(h)(i) eq longer.planes(h)(i), s"function $h, plane $i")
    for (i <- 0 until 10; q = corpus.vectors(i * 13))
      assert(got.search(q, 10).toSeq == model.search(q, 10).toSeq)
  }

  test("a file with r0 = 2^30 verifies every member at k = 10: R = r0·k does not wrap") {
    val bytes = encode(cm)
    java.nio.ByteBuffer.wrap(bytes).putInt(planesLen(cm) + 20, 1 << 30)
    val got = decode(bytes)
    assert(got.r0 == (1 << 30))
    for (i <- 0 until 20; q = corpus.vectors(i * 7 + 3))
      assert(got.search(q, 10).toSeq == cm.verify(q, null, 10).toSeq, s"query $i")
  }

  test("bytes cut off inside the array section raise an exception, never a model") {
    val bytes = encode(cm)
    val (n, dim, esk) = (cm.size, cm.esklsh.lsh.dim, cm.esklsh)
    val arraysStart = planesLen(cm) + 6 * 4 + n * dim * 4 + n * 8
    val ends = esk.arrays.scanLeft(arraysStart.toLong)(_ + _.sizeBytes).map(_.toInt)
    val tail = cm.rmis.map(r => 16 + 4 + 16 * r.leaves.length).sum
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
    Seq(1, 1, 62).foreach(out.writeInt) // dim, H, M
    Seq.fill(62)(1f).foreach(out.writeFloat) // planes
    out.write(encode(cm), 0, 8)
    Seq(3, 1, 62, 3).foreach(out.writeInt) // n, H, M, r0
    Seq(1f, -1f, 0.5f).foreach(out.writeFloat) // vectors
    Seq(0L, 1L, 2L).foreach(out.writeLong) // global ids
    Seq.fill(3)(0L).foreach(out.writeLong) // 3 · 64 bits of entries
    val e = intercept[IllegalArgumentException](decode(buf.toByteArray))
    assert(e.getMessage.contains("M = 62 does not fit n = 3") && e.getMessage.contains("[1, 61]"), e.getMessage)
  }

  /** The offset of each RMI in `cm`'s encoding: after the plane set, a
    * header of six ints, the vectors, the ids and the sorted arrays.
    */
  private def rmiStarts: Seq[Int] = {
    val (n, dim, esk) = (cm.size, cm.esklsh.lsh.dim, cm.esklsh)
    val rmisStart = planesLen(cm) + 6 * 4 + n * dim * 4 + n * 8 + esk.arrays.map(_.sizeBytes).sum.toInt
    // Each RMI: root (16 bytes), then W, then W leaves of 16 bytes.
    cm.rmis.toSeq.scanLeft(rmisStart)((at, r) => at + 16 + 4 + 16 * r.leaves.length).init
  }

  test("a count field set negative or huge fails with an IllegalArgumentException naming it, never a model or an OOM") {
    val bytes = encode(cm)
    val p = planesLen(cm)
    val wAt = rmiStarts.map(_ + 16)
    // The plane set's dim, H and M, then the model's counts.
    val fields = Seq("dim" -> 8, "H" -> 12, "M" -> 16) ++
      Seq("n" -> (p + 8), "H" -> (p + 12), "M" -> (p + 16)) ++ wAt.map("W" -> _)
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
    val at = planesLen(cm) + 20 // the model's r0, after magic, version, n, H, M
    assert(java.nio.ByteBuffer.wrap(bytes).getInt(at) == cm.r0)
    for (bad <- Seq(0, -1, Int.MinValue)) {
      val corrupt = bytes.clone()
      java.nio.ByteBuffer.wrap(corrupt).putInt(at, bad)
      val e = intercept[IllegalArgumentException](decode(corrupt))
      assert(e.getMessage.contains(s"field r0 = $bad "), e.getMessage)
    }
  }

  test("a NaN or infinite RMI slope or intercept fails with an IllegalArgumentException naming it, never a model") {
    val bytes = encode(cm)
    val starts = rmiStarts
    assert(bytes.length == starts.last + 16 + 4 + 16 * cm.rmis.last.leaves.length, "the layout the fields are placed by")
    // A root is slope then intercept; the first leaf follows W.
    val fields = Seq(
      ("leaf slope", starts.head + 20, Double.NaN),
      ("leaf slope", starts.last + 20 + 16, Double.PositiveInfinity),
      ("leaf intercept", starts.head + 20 + 8, Double.NegativeInfinity),
      ("root slope", starts.last, Double.NaN),
      ("root intercept", starts.head + 8, Double.PositiveInfinity))
    for ((field, at, bad) <- fields) {
      val corrupt = bytes.clone()
      java.nio.ByteBuffer.wrap(corrupt).putDouble(at, bad)
      val e = intercept[IllegalArgumentException](decode(corrupt))
      assert(e.getMessage.contains(s"field $field = $bad "), e.getMessage)
    }
  }
}
