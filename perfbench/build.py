"""Build file of the benchmark: compiles the repository's index code
(`src/main/scala`) together with the benchmark's own sources
(`perfbench/src`) with the Scala compiler that ships in Spark's jars.

Output goes to `.bench_build/perfbench/` at the root of the checkout and is
reused while a hash of every compiled source file is unchanged.

    python3 perfbench/build.py      # prints the runtime classpath
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

# The DuckDB test oracle is the only main source with a dependency outside
# Spark's jars; nothing the benchmark calls uses it.
EXCLUDED = {os.path.join("src", "main", "scala", "repro", "Oracle.scala")}


class BuildError(Exception):
    pass


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.isfile(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    java = shutil.which("java")
    if java is None:
        raise BuildError("no java on PATH and no JAVA_HOME")
    return java


def spark_jars():
    """Spark's jar directory, from SPARK_HOME or from spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise BuildError("set SPARK_HOME or put spark-submit on PATH")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar")))
    if not jars:
        raise BuildError(f"no jars under {home}/jars")
    return jars


def sources():
    found = []
    for top in (os.path.join("src", "main", "scala"), os.path.join("perfbench", "src")):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                rel = os.path.relpath(os.path.join(dirpath, f), ROOT)
                if f.endswith(".scala") and rel not in EXCLUDED:
                    found.append(rel)
    if not any(s.startswith("src") for s in found):
        raise BuildError("no index sources under src/main/scala")
    if not any(s.startswith("perfbench") for s in found):
        raise BuildError("no benchmark sources under perfbench/src")
    return sorted(found)


def build(log=sys.stderr):
    """Compiles when sources changed; returns the runtime classpath."""
    jars = spark_jars()
    srcs = sources()
    resources = os.path.join(ROOT, "src", "main", "resources")
    if not os.path.isdir(resources):
        raise BuildError("missing src/main/resources")
    digest = hashlib.sha256()
    for rel in srcs:
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    stamp = digest.hexdigest()
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "stamp")
    classpath = os.pathsep.join([classes, resources] + jars)
    if os.path.isfile(stamp_file) and open(stamp_file).read() == stamp:
        return classpath

    compiler = [j for j in jars if os.path.basename(j).startswith(
        ("scala-compiler-", "scala-library-", "scala-reflect-"))]
    if len(compiler) != 3:
        raise BuildError("Scala compiler jars not found among Spark's jars")
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(classes)
    print(f"[perfbench] compiling {len(srcs)} sources", file=log, flush=True)
    cmd = [java_bin(), "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", classes,
           "-classpath", os.pathsep.join(jars)] + srcs
    proc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
