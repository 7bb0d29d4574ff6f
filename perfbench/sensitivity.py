#!/usr/bin/env python3
"""Check that the benchmark sees slowdowns the program already offers.

    python3 perfbench/sensitivity.py [--seconds S]   (default: run_seconds)

Runs from the root of the tree. For each (workload, slower variant)
pair it runs the workload plain and in the slower mode, and requires
the slower mode's wall_s to be worse than the plain one by more than
wall_s's bound in BENCHMARK.json, with ok_share unchanged. Exits 1 if
any check fails.
"""

import argparse
import json
import subprocess
import sys

PAIRS = [("explore", "paranoid_memo"), ("campaign", "memo_cap")]


def run(workload, seconds, variant=""):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    if variant:
        cmd += ["--variant", variant]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    return metrics["wall_s"]["value"], metrics["ok_share"]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "wall_s")
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload, variant in PAIRS:
        wall, share = run(workload, seconds)
        slow_wall, slow_share = run(workload, seconds, variant)
        ratio = slow_wall / wall
        passed = ratio > 1 + bound and slow_share == share
        ok &= passed
        print(f"{workload}: wall_s {wall:.4f} s -> {slow_wall:.4f} s with {variant} "
              f"({ratio:.2f}x, bound {1 + bound:.2f}x); ok_share {share:.4f} -> {slow_share:.4f}: "
              f"{'ok' if passed else 'FAIL'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
