package repro.datasource

import java.io.{DataInputStream, DataOutputStream, EOFException}
import repro.core.CoreModel
import repro.esklsh.{ESKLSH, SortedKeyArray}
import repro.lsh.{Hashkey, RandomHyperplaneLSH}
import repro.rmi.{LinearModel, SimplifiedRMI}

/** Binary on-disk format of the LIDER DataSource V2 index files: plane-set
  * records and core-model records. A custom explicit codec (not Java
  * serialization) so the format is stable, compact and readable from a
  * `PartitionReader` without any Spark machinery.
  *
  * A model record holds no hyperplanes: it is read against a plane set,
  * and uses that set's first M planes per function, the view
  * [[RandomHyperplaneLSH.truncate]] makes. So the in-cluster retrievers,
  * which share one set in memory, share one record on disk too.
  *
  * A model record stores nothing its sorted arrays and n already imply:
  * each array's re-scaler is derived from the array on load
  * ([[repro.rmi.KeyRescaler.of]]), and each RMI's n is the model's n.
  *
  * Layouts (big-endian, via DataOutputStream):
  *   plane set:  magic "LIDR", version, dim, H, M,
  *               hyperplanes (H·M·dim floats)
  *   core model: magic "LIDR", version, n, H, M, r0,
  *               vectors (n·dim floats), globalIds (n longs),
  *               per array: its packed (key, local id) words, as
  *                 SortedKeyArray.write writes them,
  *               per array: RMI (root slope/intercept, W,
  *                 W leaves' slope/intercept)
  */
object CoreModelCodec {
  private val Magic = 0x4C494452 // "LIDR"
  private val Version = 5
  private val PlanesHeaderBytes = 20L

  def writePlanes(lsh: RandomHyperplaneLSH, out: DataOutputStream): Unit = {
    out.writeInt(Magic); out.writeInt(Version)
    out.writeInt(lsh.dim); out.writeInt(lsh.numKeys); out.writeInt(lsh.keyLen)
    lsh.planes.foreach(_.foreach(writeFloats(out, _)))
  }

  /** Reads a plane set that [[writePlanes]] wrote into a file of `length`
    * bytes. dim, H and M are read first. A count below 1, M above
    * [[Hashkey.MaxLen]], or dim or H above `length` fails with an
    * `IllegalArgumentException` naming the field. Planes that need more
    * bytes than the file has after the header fail with an `EOFException`,
    * as a file cut short does, before anything is allocated by them.
    */
  def readPlanes(in: DataInputStream, length: Long): RandomHyperplaneLSH = {
    readHeader(in)
    val (dimValue, hValue, mValue) = (in.readInt(), in.readInt(), in.readInt())
    val dim = count("dim", dimValue, 1, length, length)
    val numKeys = count("H", hValue, 1, length, length)
    val keyLen = count("M", mValue, 1, Hashkey.MaxLen, length)
    if (dim.toLong * numKeys > (length - PlanesHeaderBytes) / 4 / keyLen)
      throw new EOFException(
        s"a plane set of dim = $dim, H = $numKeys, M = $keyLen needs more than the $length bytes of its file; the file is cut short")
    RandomHyperplaneLSH.fromPlanes(Array.fill(numKeys, keyLen)(readFloats(in, dim)))
  }

  def write(cm: CoreModel, out: DataOutputStream): Unit = {
    val n = cm.size
    val esk = cm.esklsh
    out.writeInt(Magic); out.writeInt(Version)
    out.writeInt(n)
    out.writeInt(esk.numArrays); out.writeInt(esk.keyLen)
    out.writeInt(cm.r0)

    cm.vectors.foreach(writeFloats(out, _))
    var i = 0
    while (i < n) { out.writeLong(cm.globalIds(i)); i += 1 }

    esk.arrays.foreach(_.write(out))

    cm.rmis.foreach { rmi =>
      out.writeDouble(rmi.root.slope); out.writeDouble(rmi.root.intercept)
      out.writeInt(rmi.leaves.length)
      rmi.leaves.foreach { l => out.writeDouble(l.slope); out.writeDouble(l.intercept) }
    }
  }

  /** Reads a model that [[write]] wrote into a file of `length` bytes, over
    * the first M planes per function of `planes`. dim is the set's. Each
    * count (n, H, M and every RMI's W) is checked before anything is
    * allocated by it: a count out of its range, which for H is the set's H
    * and for M at most the set's M, or one that sizes a section larger
    * than `length` bytes, fails with an `IllegalArgumentException` naming
    * the field, as does a NaN or infinite RMI slope or intercept. A file
    * cut short fails with an `EOFException`.
    */
  def read(in: DataInputStream, length: Long, planes: RandomHyperplaneLSH): CoreModel = {
    readHeader(in)
    val dim = planes.dim
    // Bounds by what fits: a vector is dim floats and its id, a leaf two doubles.
    val n = count("n", in.readInt(), 1, length / (4L * dim + 8), length)
    val numKeys = count("H", in.readInt(), planes.numKeys, planes.numKeys, length)
    val keyLen = count("M", in.readInt(), 1, planes.keyLen, length)
    val r0 = count("r0", in.readInt(), 1, Int.MaxValue, length)

    val vectors = Array.fill(n)(readFloats(in, dim))
    val globalIds = Array.fill(n)(in.readLong())

    val arrays = Array.fill(numKeys)(SortedKeyArray.read(in, n, keyLen))
    val rmis = Array.fill(numKeys) {
      val root = linearModel("root", in, length)
      val w = count("W", in.readInt(), 1, length / 16, length)
      SimplifiedRMI(root, Array.fill(w)(linearModel("leaf", in, length)), n.toLong)
    }

    new CoreModel(vectors, globalIds, new ESKLSH(planes.truncate(keyLen), arrays), rmis, r0)
  }

  private def linearModel(model: String, in: DataInputStream, length: Long): LinearModel =
    LinearModel(finite(s"$model slope", in.readDouble(), length), finite(s"$model intercept", in.readDouble(), length))

  private def writeFloats(out: DataOutputStream, v: Array[Float]): Unit = {
    var j = 0
    while (j < v.length) { out.writeFloat(v(j)); j += 1 }
  }

  private def readFloats(in: DataInputStream, dim: Int): Array[Float] = {
    val v = new Array[Float](dim)
    var j = 0
    while (j < dim) { v(j) = in.readFloat(); j += 1 }
    v
  }

  private def readHeader(in: DataInputStream): Unit = {
    require(in.readInt() == Magic, "not a LIDER index file")
    val version = in.readInt()
    require(version == Version,
      s"index format version $version is not supported (this build reads version $Version); rebuild the index")
  }

  private def finite(field: String, value: Double, length: Long): Double = {
    require(!value.isNaN && !value.isInfinite,
      s"index field $field = $value is not finite in a file of $length bytes; the file is corrupt")
    value
  }

  private def count(field: String, value: Int, min: Int, max: Long, length: Long): Int = {
    require(value >= min && value <= max,
      s"index field $field = $value is outside [$min, $max] for a file of $length bytes; the file is corrupt")
    value
  }
}
