#!/usr/bin/env python3
"""Run one KOKO query benchmark workload.

    python3 kokobench/run.py --workload wiki-title --seed 42 --seconds 20 --trace 0

Run it from the root of the repository. The first run builds the program
and the benchmark with sbt (offline) and caches the runtime classpath;
later runs start one plain JVM. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}. The run
record (metadata, metrics, per-query rows of a traced run) and the spans
of a traced run are written to kokobench/out/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TARGET = os.path.join(BENCH, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "classpath.stamp")
OUT = os.path.join(BENCH, "out")

# Inputs of the build: a change to any of them rebuilds before the run.
BUILD_INPUTS = [
    os.path.join(ROOT, "build.sbt"),
    os.path.join(ROOT, "project", "build.properties"),
    os.path.join(ROOT, "src", "main"),
    os.path.join(BENCH, "build.sbt"),
    os.path.join(BENCH, "project", "build.properties"),
    os.path.join(BENCH, "src", "main"),
]

DRIVER_HEAP = "-Xmx4g"
# The serial collector runs no GC threads beside the query. On a 4-vCPU Xeon
# VM it cut the spread (IQR/median over ten seeds) of cafe-evidence
# query_s.p50 from 0.10 and 0.16 with G1 to 0.045, for queries about 20%
# slower; wiki-title's spread stayed between 0.1 and 0.16.
GC = "-XX:+UseSerialGC"
BUILD_TIMEOUT_S = 650
RUN_TIMEOUT_S = 170

# Spark on Java 17 needs these packages opened to unnamed modules.
JAVA_OPENS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
]


def fail(msg):
    print(f"kokobench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd to completion; kills it (and waits) on timeout or when this
    script is terminated, so no process outlives the run."""
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, text=True, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, stdout


def build_hash():
    h = hashlib.sha256()
    for path in BUILD_INPUTS:
        files = [path]
        if os.path.isdir(path):
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def ensure_built():
    digest = build_hash()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == digest:
                return
    print("kokobench: building with sbt", file=sys.stderr)
    # The build resolves only from local caches, as the repository's own
    # test command does.
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true "
                   f"-Dsbt.repository.config={os.path.expanduser('~/.sbt/repositories')} -Xmx4g")
    # sbt's own output goes to stderr: stdout carries only the report.
    code, _ = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                        BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed (sbt exit {code})")
    with open(STAMP, "w") as fh:
        fh.write(digest)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for f in (os.path.join(ROOT, "build.sbt"),
              os.path.join(ROOT, "src", "main", "scala", "repro", "core", "KokoEngine.scala")):
        if not os.path.exists(f):
            fail(f"{os.path.relpath(f, ROOT)} is missing: run from a full checkout of the repository")
    ensure_built()
    with open(CLASSPATH) as fh:
        classpath = fh.read().strip()

    os.makedirs(OUT, exist_ok=True)
    cmd = ["java", DRIVER_HEAP, GC, f"-Djava.io.tmpdir={OUT}", *JAVA_OPENS, "-cp", classpath,
           "repro.perf.KokoBench",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--sha", git_sha()]
    code, stdout = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE)
    if code != 0:
        sys.stdout.write(stdout)
        fail(f"benchmark JVM exited with {code}")
    lines = stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
