package repro.perfbench

import java.io.File

/** Entry point of one benchmark process:
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --work <dir> --tiny <0|1>
  *
  * Builds the workload's inputs from the seed, sets up the index once,
  * checks every output, warms up until the JIT stops compiling, runs one
  * closed-loop client for `seconds`, and with `--trace 1` replays queries
  * through the public per-layer calls with spans and, where the workload
  * asks for it, times the saved index through the DataSource V2 path.
  * Prints every metric on stderr and, as the last stdout line, a JSON
  * object with all of them, each tagged with its kind; `perfbench/run.py`
  * merges the processes of one run and keeps the kind asked for.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(key: String): String =
      opts.getOrElse(key, throw new IllegalArgumentException(s"missing --$key"))
    val base = Workloads.byName(need("workload"))
    val tiny = opts.get("tiny").contains("1")
    val run = new Run(
      if (tiny) Workloads.tiny(base) else base,
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = need("trace") == "1",
      workDir = new File(need("work")),
      tiny = tiny)
    println(run.execute())
  }
}

/** A metric value with its unit; `e2e` metrics are what a user sees. */
final case class Metric(value: Double, unit: String, e2e: Boolean)

