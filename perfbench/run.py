"""LIDER benchmark: one run of one workload.

    python3 perfbench/run.py --workload ms-k10-1c --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Builds the index code and the harness from source (perfbench/build.py),
runs the harness from the root of the checkout, and prints the run's
result JSON as the last line of standard output. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. Everything a run
writes stays under `.bench_build/perfbench/`.

`--selfcheck` runs every workload on a tiny corpus, with and without the
trace, and fails unless each run is correct and emits exactly the metric
names and units that BENCHMARK.json lists.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["ms-k10-1c", "wiki-k100-1c"]
RUN_TIMEOUT_S = 170

# A run is split over this many JVMs, one after the other, each with its
# own set-up, checks and warm-up and an equal share of the timed window.
# A JVM's speed depends on where it lands (heap and code layout, the core
# it runs on), so timings are the median over them, set-up time too. The
# results that depend only on the seed must agree between them.
PROCESSES = 2
SAME_IN_EVERY_PROCESS = {"recall_at_k", "mrr_at_10", "index_bytes", "index_disk_bytes"}

# -Xbatch compiles each hot method before running it again instead of in
# the background. Without it a JVM settles into one of two JIT modes for
# the same search code (escape analysis does or does not remove the
# per-comparison allocation of TopK.ordering: about 174 KB against 980 KB
# per ms-k10 query, and 40 % apart in throughput); with it every JVM
# lands in the low-allocation mode. jvm.alloc_bytes_per_query records the
# mode of each run. The parallel collector keeps GC threads idle between
# short pauses; a fixed heap keeps resizing out of the timed window, and
# no perf-data file is written outside the checkout.
JVM_FLAGS = ["-Xbatch", "-XX:+UseParallelGC", "-Xms2g", "-Xmx2g", "-XX:-UsePerfData"]


def run_process(classpath, workload, seed, seconds, trace, tiny, timeout):
    """One harness JVM; returns its result object, or None."""
    work = os.path.join(build.OUT, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    cmd = [build.java_bin()] + JVM_FLAGS + [
        f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
        f"-Dlog4j2.configurationFile={os.path.join(build.ROOT, 'perfbench', 'log4j2.properties')}",
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work", work, "--tiny", "1" if tiny else "0"]
    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"[perfbench] {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[perfbench] harness exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("[perfbench] harness printed no result", file=sys.stderr)
        return None


def run(workload, seed, seconds, trace, tiny=False):
    """One run over PROCESSES JVMs, the last one traced if asked. Returns
    the merged result with the metrics of the kind asked for, or None if a
    process failed.
    """
    classpath = build.build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for i in range(PROCESSES):
        res = run_process(classpath, workload, seed, seconds / PROCESSES,
                          trace if i == PROCESSES - 1 else 0, tiny,
                          max(1.0, deadline - time.monotonic()))
        if res is None:
            return None
        results.append(res)
    correct = all(r["correct"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for name, last in results[-1]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        if name in SAME_IN_EVERY_PROCESS and len(set(values)) != 1:
            print(f"[perfbench] {name} differs between processes of seed {seed}: {values}", file=sys.stderr)
            correct = False
        if name == "run.samples":
            value = sum(values)
        elif name == "success_rate":
            value = (attempted - failed) / attempted
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": last["unit"], "kind": last["kind"]}
    kind = "layer" if trace else "e2e"
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                        for n, m in metrics.items() if m["kind"] == kind}}


def selfcheck():
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        print(f"[selfcheck] BENCHMARK.json workloads {declared} != {WORKLOADS}", file=sys.stderr)
        return 1
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(workload, 1, 2, trace, tiny=True)
            tag = f"{workload} --trace {trace}"
            if res is None:
                problems.append(f"{tag}: no result")
                continue
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{tag}: missing {missing}, undeclared {extra}, unit mismatch {units}")
            print(f"[selfcheck] {tag}: {len(got)} metrics, attempted {res['attempted']}", file=sys.stderr)
    for p in problems:
        print(f"[selfcheck] FAIL {p}", file=sys.stderr)
    print("[selfcheck] " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
