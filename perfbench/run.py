#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run its workloads.

Usage (from the repository root):
    python3 perfbench/run.py [--workload cilksort|uts_mem|serve|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own perfbench process. --trace 0 prints the
end-to-end metrics of untraced runs; --trace 1 prints the per-layer metrics
of traced runs (same seed) after checking them against untraced ones;
without --trace, both in turn. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics (names prefixed with the
workload when several run). The exit code is nonzero when the build fails, a
run times out, or any output check fails.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build) under
the repository root; see perfbench/METRICS.md for what every metric means.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cilksort", "uts_mem", "serve")
RUN_LIMIT_S = 170  # every run must end within 180 s, building aside


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root: Path) -> Path:
    src = root / "perfbench"
    out = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(src), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return out / "perfbench"


def run_one(binary: Path, workload: str, trace: int, args) -> tuple[int, dict]:
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in time")
        sys.exit(1)
    lines = p.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: {workload} printed no result (exit {p.returncode})")
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {}
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        log(f"perfbench: {workload} printed a malformed result")
        sys.exit(1)
    return p.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = build(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)

    results = [(w, run_one(binary, w, t, args)) for w in workloads for t in traces]
    if len(results) == 1:
        rc, result = results[0][1]
    else:
        prefix = len(workloads) > 1
        rc = max(r for _, (r, _) in results)
        result = {
            "correct": all(r["correct"] for _, (_, r) in results),
            "attempted": sum(r["attempted"] for _, (_, r) in results),
            "failed": sum(r["failed"] for _, (_, r) in results),
            "metrics": {(f"{w}.{k}" if prefix else k): v for w, (_, r) in results
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    sys.exit(rc if rc != 0 else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
