#!/usr/bin/env python3
"""Run one benchmark workload: build the benchmark with the program's sources
if they changed, then run it in a fresh JVM and pass its output through.

    python3 perfbench/run.py --workload replay-e --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Everything the run writes goes under
`.bench_build/` there. The last line of standard output is the JSON result.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
PROGRAM = os.path.join(ROOT, "src", "main", "scala", "repro")
BUILD = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(BUILD, "target", "scala-2.13", "classes")
HEAP = "3g"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# The module options Spark's launcher passes on JDK 17.
JVM_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *("--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def spark_home():
    """SPARK_HOME, or the distribution whose spark-submit is on the PATH."""
    home = os.environ.get("SPARK_HOME")
    submit = shutil.which("spark-submit")
    if not home and submit:
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found; set SPARK_HOME")
    return home


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources_digest():
    h = hashlib.sha256()
    for top in (os.path.join(BENCH, "src"), PROGRAM):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    for p in ("build.sbt", os.path.join("project", "build.properties")):
        with open(os.path.join(BENCH, p), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(spark):
    stamp = os.path.join(BUILD, "stamp")
    digest = sources_digest()
    if os.path.exists(stamp) and open(stamp).read() == digest and os.path.isdir(CLASSES):
        return
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline", SPARK_HOME=spark)
    props = ["-Dsbt.offline=true", "-Dsbt.server.autostart=false", "-Dsbt.boot.lock=false",
             "-Dsbt.global.base=" + os.path.join(BUILD, "sbt-global")]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        props += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
    tmp = os.path.join(BUILD, "sbt-tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", *props,
           "-J-XX:-UsePerfData", "-J-Djava.io.tmpdir=" + tmp, "-J-Djna.tmpdir=" + tmp, "compile"]
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        r = subprocess.run(cmd, cwd=BENCH, env=env, stdout=log, stderr=subprocess.STDOUT,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        fail("build failed, see .bench_build/build.log")
    with open(stamp, "w") as fh:
        fh.write(digest)


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = ap.parse_args()

    if not os.path.isdir(PROGRAM):
        fail("no program sources at src/main/scala/repro; run from the root of a checkout")
    spark = spark_home()
    build(spark)

    run_dir = os.path.join(BUILD, "run", "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp, *JVM_OPENS,
           "-cp", CLASSES + os.pathsep + os.path.join(spark, "jars", "*"),
           "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--commit", commit(), "--work", run_dir]
    with open(os.path.join(run_dir, "stderr.log"), "w") as err:
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                             stdin=subprocess.DEVNULL, text=True, start_new_session=True)
        try:
            out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail("run failed (exit %d), see %s/stderr.log" % (p.returncode, os.path.relpath(run_dir, ROOT)))
    json.loads(lines[-1])
    sys.stdout.write(out)
    if a.trace == 1:
        shutil.copy(os.path.join(run_dir, "trace.jsonl"),
                    os.path.join(BUILD, "trace-%s-%d.jsonl" % (a.workload, a.seed)))
    shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
