package repro.datasource

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.core.{CoreModel, Lider}
import scala.jdk.CollectionConverters._

/** On-disk layout of a persisted LIDER index (DESIGN.md §4):
  *
  *   dir/meta.txt            flat key=value: dim, c, c0
  *   dir/centroid_model.bin  centroids retriever (CoreModelCodec)
  *   dir/clusters/<cid>.bin  one core model per non-empty cluster
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
    var cid = 0
    while (cid < lider.numClusters) {
      val cm = lider.inClusterRetrievers(cid)
      if (cm != null) writeModel(new File(base, s"clusters/$cid.bin"), cm)
      cid += 1
    }
  }

  def readMeta(dir: String): Map[String, String] =
    Files.readAllLines(Paths.get(dir, "meta.txt")).asScala
      .filter(_.contains("="))
      .map { l => val Array(k, v) = l.split("=", 2); k -> v }
      .toMap

  def loadCentroidModel(dir: String): CoreModel =
    readModel(new File(dir, "centroid_model.bin"))

  /** Loads one cluster's core model. An empty cluster has no file, and
    * callers must not request it. The centroids retriever indexes all
    * `km.k` centroids, empty clusters' included, so an empty cluster can
    * win layer 1: [[Lider.targetClusters]] filters those, and the scan
    * planner mirrors that with [[clusterExists]].
    */
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
