package repro.datasource

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.core.{CoreModel, Lider, LiderParams}
import scala.jdk.CollectionConverters._

/** On-disk layout of a persisted LIDER index (DESIGN.md §4):
  *
  *   dir/meta.txt            flat key=value: dim, c, c0
  *   dir/centroid_model.bin  centroids retriever (CoreModelCodec)
  *   dir/clusters/<cid>.bin  one core model per cluster, cid = 0 until c
  *                           (every cluster has members: [[Lider.build]])
  *
  * The corpus embeddings stay in their source Parquet — the index only
  * stores what it needs for search (per-cluster vectors ride inside the
  * cluster core models, which the paper's in-memory design also keeps for
  * the verification step).
  */
object IndexStore {

  def save(lider: Lider, dir: String): Unit = {
    val base = new File(dir)
    base.mkdirs()
    new File(base, "clusters").mkdirs()

    val meta = Seq(
      s"dim=${lider.centroidsRetriever.esklsh.lsh.dim}",
      s"c=${lider.numClusters}",
      s"c0=${lider.params.c0}",
    ).mkString("", "\n", "\n")
    Files.write(Paths.get(dir, "meta.txt"), meta.getBytes(StandardCharsets.UTF_8))

    writeModel(new File(base, "centroid_model.bin"), lider.centroidsRetriever)
    for (cid <- 0 until lider.numClusters)
      writeModel(new File(base, s"clusters/$cid.bin"), lider.inClusterRetrievers(cid))
  }

  /** The whole index, every cluster decoded. Of [[LiderParams]] only c and
    * c0 are stored; the build-only fields take their defaults. A missing
    * file fails with an exception naming it.
    */
  def load(dir: String): Lider = {
    val meta = readMeta(dir)
    val c = meta("c").toInt
    new Lider(loadCentroidModel(dir), Array.tabulate(c)(loadClusterModel(dir, _)),
      LiderParams(c = c, c0 = meta("c0").toInt))
  }

  def readMeta(dir: String): Map[String, String] =
    Files.readAllLines(Paths.get(dir, "meta.txt")).asScala
      .filter(_.contains("="))
      .map { l => val Array(k, v) = l.split("=", 2); k -> v }
      .toMap

  def loadCentroidModel(dir: String): CoreModel =
    readModel(new File(dir, "centroid_model.bin"))

  /** Loads one cluster's core model. */
  def loadClusterModel(dir: String, cid: Int): CoreModel =
    readModel(new File(dir, s"clusters/$cid.bin"))

  def clusterExists(dir: String, cid: Int): Boolean =
    new File(dir, s"clusters/$cid.bin").isFile

  private def writeModel(f: File, cm: CoreModel): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f), 1 << 16))
    try CoreModelCodec.write(cm, out)
    finally out.close()
  }

  private def readModel(f: File): CoreModel = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f), 1 << 16))
    try CoreModelCodec.read(in, f.length())
    finally in.close()
  }
}
