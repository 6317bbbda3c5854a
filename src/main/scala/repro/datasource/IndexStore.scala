package repro.datasource

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, File, FileInputStream, FileOutputStream}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import repro.core.{CoreModel, CoreModelParams, Lider, LiderParams}
import repro.lsh.RandomHyperplaneLSH
import scala.jdk.CollectionConverters._

/** On-disk layout of a persisted LIDER index (DESIGN.md §4), each `.bin`
  * in [[CoreModelCodec]]'s format:
  *
  *   dir/meta.txt            flat key=value: dim, c, c0
  *   dir/centroid_model.bin  centroids retriever: its plane set, then its
  *                           model
  *   dir/cluster_planes.bin  the one plane set of every in-cluster
  *                           retriever ([[Lider.clusterLsh]])
  *   dir/clusters/<cid>.bin  one model per cluster, cid = 0 until c
  *                           (every cluster has members: [[Lider.build]]),
  *                           read over cluster_planes.bin's set
  *
  * A loaded index holds what a built one does: the clusters' planes are
  * one set, shared by reference. The corpus embeddings stay in their
  * source Parquet — the index only stores what it needs for search
  * (per-cluster vectors ride inside the cluster core models, which the
  * paper's in-memory design also keeps for the verification step).
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

    val centroids = lider.centroidsRetriever
    writeFile(new File(base, "centroid_model.bin")) { out =>
      CoreModelCodec.writePlanes(centroids.esklsh.lsh, out)
      CoreModelCodec.write(centroids, out)
    }
    writeFile(new File(base, "cluster_planes.bin"))(CoreModelCodec.writePlanes(lider.clusterLsh, _))
    for (cid <- 0 until lider.numClusters)
      writeFile(new File(base, s"clusters/$cid.bin"))(CoreModelCodec.write(lider.inClusterRetrievers(cid), _))
  }

  /** The whole index, every cluster decoded over one plane set. Its
    * [[LiderParams]] hold the stored c and c0, and each core's H, W and r0
    * as its models hold them: the centroid model's for `centroidCore`,
    * cluster 0's for `clusterCore` (every cluster of a built index shares
    * them). The seeds are build-only, are not stored, and take their
    * defaults. A missing file fails with an exception naming it.
    */
  def load(dir: String): Lider = {
    val meta = readMeta(dir)
    val c = meta("c").toInt
    // The centroid file first: a version-2 directory, which has no plane
    // file, then fails asking for a rebuild.
    val centroids = loadCentroidModel(dir)
    val planes = loadClusterPlanes(dir)
    val clusters = Array.tabulate(c)(loadClusterModel(dir, _, planes))
    new Lider(centroids, clusters, LiderParams(c = c, c0 = meta("c0").toInt,
      centroidCore = coreParams(centroids), clusterCore = coreParams(clusters(0))))
  }

  /** The H, W and r0 that `cm` holds. */
  private def coreParams(cm: CoreModel): CoreModelParams =
    CoreModelParams(numArrays = cm.esklsh.numArrays, rmiWidth = cm.rmis(0).leaves.length, r0 = cm.r0)

  def readMeta(dir: String): Map[String, String] =
    Files.readAllLines(Paths.get(dir, "meta.txt")).asScala
      .filter(_.contains("="))
      .map { l => val Array(k, v) = l.split("=", 2); k -> v }
      .toMap

  def loadCentroidModel(dir: String): CoreModel =
    readFile(new File(dir, "centroid_model.bin")) { (in, length) =>
      CoreModelCodec.read(in, length, CoreModelCodec.readPlanes(in, length))
    }

  /** Loads one cluster's core model: the clusters' plane set, then the
    * cluster's file.
    */
  def loadClusterModel(dir: String, cid: Int): CoreModel =
    loadClusterModel(dir, cid, loadClusterPlanes(dir))

  def clusterExists(dir: String, cid: Int): Boolean =
    new File(dir, s"clusters/$cid.bin").isFile

  private def loadClusterPlanes(dir: String): RandomHyperplaneLSH =
    readFile(new File(dir, "cluster_planes.bin"))(CoreModelCodec.readPlanes)

  private def loadClusterModel(dir: String, cid: Int, planes: RandomHyperplaneLSH): CoreModel =
    readFile(new File(dir, s"clusters/$cid.bin"))(CoreModelCodec.read(_, _, planes))

  private def writeFile(f: File)(body: DataOutputStream => Unit): Unit = {
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(f), 1 << 16))
    try body(out)
    finally out.close()
  }

  private def readFile[A](f: File)(body: (DataInputStream, Long) => A): A = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(f), 1 << 16))
    try body(in, f.length())
    finally in.close()
  }
}
