package repro.jobs

import java.nio.file.{Files, Paths}
import repro.experiments.{Table2Experiment, Table3Experiment, Table4Experiment, Table5Experiment}

/** spark-submit entrypoint regenerating one of the paper's Tables 2–5.
  * Usage:
  *
  *   spark-submit --class repro.jobs.TableJob repro.jar <2|3|4|5> [outFile]
  *
  * Table 2 is end-to-end quality with AQT per cell (the Figure 4
  * companion), Table 3 the H sweep on a standalone core model, Table 4 the
  * key re-scaling ablation, and Table 5 construction time and index memory
  * against SK-LSH. `outFile` defaults to `table<N>_results.txt`.
  *
  * The experiments are driver-side (the paper's indexes are in-memory,
  * single-machine); Spark is used by the DSv2 jobs (BuildIndexJob /
  * SearchJob) and the test oracle.
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val usage = "usage: TableJob <2|3|4|5> [outFile]"
    require(args.nonEmpty, usage)
    val table = args(0)
    val rendered = table match {
      case "2" => Table2Experiment.run().render
      case "3" => Table3Experiment.run().render
      case "4" => Table4Experiment.run().render
      case "5" => Table5Experiment.run().render
      case other => throw new IllegalArgumentException(s"there is no table $other; $usage")
    }
    val out = args.lift(1).getOrElse(s"table${table}_results.txt")
    println(rendered)
    Files.write(Paths.get(out), rendered.getBytes("UTF-8"))
    Console.err.println(s"[table$table] written to $out")
  }
}
