#!/usr/bin/env python3
"""Build and run the workload benchmark from the root of a source tree.

    python3 perfbench/run.py --workload paper|explore|campaign|kv \
        --seed N --seconds S --trace 0|1 [--variant NAME]

Builds perfbench/bench.exe from source into .bench_build/ (dune, release
profile, no shared dune cache, so nothing is written outside the tree),
runs it in this process's working directory and relays its output. The
last line of standard output is the benchmark's JSON result. Exits
non-zero, without a result line, if the build fails, the benchmark
fails, or its result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
# the first run in a fresh tree builds the libraries: allow for it
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--display", "quiet", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        fail("build failed")


def valid(line):
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict) and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int) and isinstance(r["metrics"], dict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["paper", "explore", "campaign", "kv"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--variant", default="")
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.variant:
        cmd += ["--variant", args.variant]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark timed out")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not valid(lines[-1]):
        sys.stderr.write(out)
        fail(f"benchmark exited with {proc.returncode} and no valid result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
