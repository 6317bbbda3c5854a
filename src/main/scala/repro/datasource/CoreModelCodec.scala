package repro.datasource

import java.io.{DataInputStream, DataOutputStream}
import repro.core.CoreModel
import repro.esklsh.{ESKLSH, SortedKeyArray}
import repro.lsh.{Hashkey, RandomHyperplaneLSH}
import repro.rmi.{KeyRescaler, LinearModel, SimplifiedRMI}

/** Binary on-disk format of one core model — the per-cluster index files
  * the LIDER DataSource V2 reads. A custom explicit codec (not Java
  * serialization) so the format is stable, compact and readable from a
  * `PartitionReader` without any Spark machinery.
  *
  * Layout (big-endian, via DataOutputStream):
  *   magic "LIDR", version, n, dim, H, M, b, r0, rescaleKeys,
  *   vectors (n·dim floats), globalIds (n longs),
  *   hyperplanes (H·M·dim floats),
  *   per array: its packed (key, local id) words, as SortedKeyArray.write
  *     writes them,
  *   per array: rescaler (min, max, len),
  *   per array: RMI (root a/b, W, leaves a/b, n)
  */
object CoreModelCodec {
  private val Magic = 0x4C494452 // "LIDR"
  private val Version = 2

  def write(cm: CoreModel, out: DataOutputStream): Unit = {
    val n = cm.size
    val lsh = cm.esklsh.lsh
    out.writeInt(Magic); out.writeInt(Version)
    out.writeInt(n); out.writeInt(lsh.dim)
    out.writeInt(lsh.numKeys); out.writeInt(lsh.keyLen)
    out.writeInt(cm.esklsh.b); out.writeInt(cm.r0)
    out.writeBoolean(cm.rescaleKeys)

    var i = 0
    while (i < n) {
      val v = cm.vectors(i)
      var j = 0
      while (j < v.length) { out.writeFloat(v(j)); j += 1 }
      i += 1
    }
    i = 0
    while (i < n) { out.writeLong(cm.globalIds(i)); i += 1 }

    var h = 0
    while (h < lsh.numKeys) {
      var m = 0
      while (m < lsh.keyLen) {
        val p = lsh.planes(h)(m)
        var j = 0
        while (j < p.length) { out.writeFloat(p(j)); j += 1 }
        m += 1
      }
      h += 1
    }

    cm.esklsh.arrays.foreach(_.write(out))

    h = 0
    while (h < lsh.numKeys) {
      val rs = cm.rescalers(h)
      out.writeLong(rs.min); out.writeLong(rs.max); out.writeLong(rs.arrayLen)
      h += 1
    }

    h = 0
    while (h < lsh.numKeys) {
      val rmi = cm.rmis(h)
      out.writeDouble(rmi.root.slope); out.writeDouble(rmi.root.intercept)
      out.writeInt(rmi.leaves.length)
      rmi.leaves.foreach { l => out.writeDouble(l.slope); out.writeDouble(l.intercept) }
      out.writeLong(rmi.n)
      h += 1
    }
  }

  /** Reads a model that [[write]] wrote into `length` bytes. Each count
    * (n, dim, H, M, b and every RMI's W) is checked before anything is
    * allocated by it: a count out of its range, or one that sizes a section
    * larger than `length` bytes, fails with an `IllegalArgumentException`
    * naming the field. A file cut short fails with an `EOFException`.
    */
  def read(in: DataInputStream, length: Long): CoreModel = {
    require(in.readInt() == Magic, "not a LIDER core-model file")
    val version = in.readInt()
    require(version == Version,
      s"core-model format version $version is not supported (this build reads version $Version); rebuild the index")
    // Bounds by what fits: a vector is at least one float and its id, a
    // hash array at least one plane of dim floats, a leaf two doubles.
    val n = count("n", in.readInt(), 1, length / 12, length)
    val dim = count("dim", in.readInt(), 1, (length / n - 8) / 4, length)
    val numKeys = count("H", in.readInt(), 1, length / (4L * dim), length)
    val keyLen = count("M", in.readInt(), 1, math.min(Hashkey.MaxLen, length / (4L * dim * numKeys)), length)
    val b = count("b", in.readInt(), 0, Hashkey.MaxLen, length)
    val r0 = count("r0", in.readInt(), 1, Int.MaxValue, length)
    val rescaleKeys = in.readBoolean()

    val vectors = Array.fill(n) {
      val v = new Array[Float](dim)
      var j = 0
      while (j < dim) { v(j) = in.readFloat(); j += 1 }
      v
    }
    val globalIds = Array.fill(n)(in.readLong())

    val planes = Array.fill(numKeys, keyLen) {
      val p = new Array[Float](dim)
      var j = 0
      while (j < dim) { p(j) = in.readFloat(); j += 1 }
      p
    }
    val lsh = RandomHyperplaneLSH.fromPlanes(planes)

    val arrays = Array.fill(numKeys)(SortedKeyArray.read(in, n, keyLen))
    val rescalers = Array.fill(numKeys)(KeyRescaler(in.readLong(), in.readLong(), in.readLong()))
    val rmis = Array.fill(numKeys) {
      val root = LinearModel(in.readDouble(), in.readDouble())
      val w = count("W", in.readInt(), 1, length / 16, length)
      val leaves = Array.fill(w)(LinearModel(in.readDouble(), in.readDouble()))
      SimplifiedRMI(root, leaves, in.readLong())
    }

    new CoreModel(vectors, globalIds, new ESKLSH(lsh, arrays, b), rescalers, rmis, r0, rescaleKeys)
  }

  private def count(field: String, value: Int, min: Int, max: Long, length: Long): Int = {
    require(value >= min && value <= max,
      s"core-model field $field = $value is outside [$min, $max] for a file of $length bytes; the file is corrupt")
    value
  }
}
