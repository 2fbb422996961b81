#!/usr/bin/env python3
"""Paired, alternating throughput runs of two builds on one workload.

Runs two `throughput` binaries (bench/throughput) in N pairs, alternating
which one runs first, so host drift loads both sides alike. Each run is
written as a one-workload report (the BENCH_throughput.json layout) into
OUT/base and OUT/head; then `bench/throughput/run.py --compare` judges the
two directories. Last, it prints each side's median and quartiles of every
end-to-end metric, the per-pair ratios, and how many pairs the head side
won. With --trace 1 the runs are traced and every per-layer `.ns` metric's
medians are printed too.

Usage:
  scripts/throughput_pairs.py BASE_BIN HEAD_BIN --workload W
      [--pairs N] [--seed S] [--seconds T] [--trace 0|1] [--out DIR]

The run length defaults to BENCHMARK.json's run_seconds. Exit status is
run.py --compare's (1 on a regression).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "bench", "throughput", "run.py")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summarize(name, better, base, head):
    """One metric's quartiles per side, per-pair ratios and head's wins."""
    bq, hq = quartiles(base), quartiles(head)
    ratios = [h / b if b else float("nan") for b, h in zip(base, head)]
    wins = sum(1 for b, h in zip(base, head)
               if (h > b if better == "higher" else h < b))
    print(f"{name}:")
    print(f"  base  q1 {bq[0]:.6g}  median {bq[1]:.6g}  q3 {bq[2]:.6g}  "
          f"(IQR {bq[2] - bq[0]:.6g})")
    print(f"  head  q1 {hq[0]:.6g}  median {hq[1]:.6g}  q3 {hq[2]:.6g}")
    print(f"  head/base median {hq[1] / bq[1]:.3f}x; per pair "
          + " ".join(f"{r:.3f}" for r in ratios))
    print(f"  head better in {wins} of {len(ratios)} pairs; medians differ "
          f"by {abs(hq[1] - bq[1]):.6g} vs base IQR {bq[2] - bq[0]:.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=0,
                    help="plain-repetition budget per run "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="report directory (default: a new "
                                  "temporary directory)")
    args = ap.parse_args()
    bench = spec()
    args.seconds = args.seconds or bench["run_seconds"]
    out = args.out or tempfile.mkdtemp(prefix="throughput-pairs-")
    sides = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    for side in sides:
        os.makedirs(os.path.join(out, side), exist_ok=True)

    runs = {"base": [], "head": []}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            res = run_once(sides[side], args)
            runs[side].append(res)
            report = {"seed": args.seed, "smoke": False,
                      "seconds": args.seconds,
                      "workloads": {args.workload: res}}
            path = os.path.join(out, side, f"run-{i:02d}.json")
            with open(path, "w") as f:
                json.dump(report, f, indent=1)
        acc = [runs[s][-1]["metrics"]["acc_per_s"]["value"] for s in sides]
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              f"base {acc[0]:.6g}  head {acc[1]:.6g}  "
              f"ratio {acc[1] / acc[0]:.3f}", flush=True)

    print(f"reports in {out}")
    status = subprocess.run([sys.executable, RUN_PY, "--compare",
                             os.path.join(out, "base"),
                             os.path.join(out, "head")]).returncode
    for side in sides:
        bad = [r for r in runs[side] if r["failed"] or not r["correct"]]
        if bad:
            print(f"{side}: {len(bad)} runs with failed cell-runs or "
                  f"correct: false")
    metrics = list(bench["end_to_end"])
    if args.trace:
        metrics += [m for m in bench["per_layer"]
                    if m["name"].endswith(".ns")]
    for m in metrics:
        vals = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]
                    if m["name"] in r["metrics"]] for s in sides}
        if len(vals["base"]) == len(vals["head"]) == args.pairs:
            summarize(m["name"], m["better"], vals["base"], vals["head"])
    return status


if __name__ == "__main__":
    sys.exit(main())
