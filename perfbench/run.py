#!/usr/bin/env python3
"""Runs one workload of the sw-recon layer benchmark.

    python3 perfbench/run.py --workload dna_unique --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench (the repository's
libraries from src/ plus the benchmark sources in this directory) in Release under
$CARGO_TARGET_DIR (default .bench_build), runs the workload, passes the
result through the plausibility gate in check.py and prints every metric
by name and unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics with tracing off; --trace 1 runs the traced layer
waterfall and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402

WORKLOADS = ("dna_unique", "protein_batch", "board_fleet")
DEADLINE_S = 170  # the whole run, build included, must end inside 180 s
FIRST_BUILD_DEADLINE_S = 880


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds incrementally; build output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=FIRST_BUILD_DEADLINE_S).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    if not build(build_dir):
        log("perfbench: build failed")
        return 1
    built = time.monotonic() - start

    work = os.path.join(build_dir, "work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    spans = os.path.join(build_dir, "spans", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work", work, "--spans", spans]
    # A run that compiled has the first-run allowance; others keep 180 s.
    budget = DEADLINE_S if built > 60 else DEADLINE_S - built
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        log("perfbench: the benchmark binary did not finish within %.0f s" % budget)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: the benchmark binary exited with %d" % proc.returncode)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("perfbench: the benchmark binary printed no result")
        return 1

    for line in lines[:-1]:
        print(line)
    reasons = check.check(report)
    for r in reasons:
        print("REJECTED: %s" % r)
    latency = report.get("latency")
    if latency:
        print("latency samples %d, tail quantile p%g" % (latency["samples"],
                                                         latency["tail_quantile"] * 100))
    print("requests: %d attempted, %d failed (failed_share %.6f)"
          % (report["attempted"], report["failed"], report["failed_share"]))
    names = check.LAYER_METRICS if args.trace else check.E2E_METRICS
    metrics = {n: report["metrics"][n] for n in names if n in report["metrics"]}
    for name, m in metrics.items():
        print("%-26s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not reasons, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
