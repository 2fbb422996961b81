#!/usr/bin/env python3
"""Simulator-throughput benchmark runner (README.md beside this file).

  run.py [--seed S] [--seconds T] [--smoke] [--out PATH]
      Builds the replay binary, runs each workload in its own
      single-threaded process (plain repetitions, then four traced
      repetitions), folds in micro_components, checks the outputs, prints
      every metric with its unit and writes BENCH_throughput.json. Exit 1
      when a check fails.

  run.py --workload W --seed S --seconds T --trace 0|1
      One workload. The last line of stdout is one JSON object holding
      the end-to-end metrics BENCHMARK.json names (--trace 0) or its
      per-layer metrics (--trace 1).

  run.py --compare BASE HEAD
      BASE and HEAD are BENCH_throughput.json files, or directories of
      them (one per invocation). Prints each workload x end-to-end
      metric's medians, bound and verdict, and flags every changed
      simulated output. Exit 1 on a regression.

Every build lands in build-throughput/ at the repo root, configured by
the tree's own CMakeLists.txt with hook.cmake injected.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-throughput")
WORKLOADS = ["swap-skewed", "cache-stream", "stall-drain", "ras-media"]
TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets):
    """Configures once, then builds `targets`; False when the tree cannot
    be built (for instance a checkout holding only the benchmark)."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print(f"run.py: no CMakeLists.txt in {ROOT}; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        hook = os.path.join(HERE, "hook.cmake")
        cfg = ["cmake", "-S", ROOT, "-B", BUILD,
               f"-DCMAKE_PROJECT_hmm_INCLUDE={hook}"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", *targets]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def replay_workload(workload, seed, seconds, trace, extra=()):
    cmd = [os.path.join(BUILD, "throughput"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", *extra]
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        cmd += ["--chrome-trace",
                os.path.join(BUILD, "traces", f"{workload}.json")]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=TIMEOUT_S, check=True).stdout
    return json.loads(out)


def one_workload(args):
    """One workload, one JSON line: the interface BENCHMARK.json names."""
    if not build(["throughput"]):
        return 3
    names = [m["name"]
             for m in spec()["per_layer" if args.trace else "end_to_end"]]
    res = replay_workload(args.workload, args.seed, args.seconds, args.trace)
    values = {**res["metrics"], **res["outputs"]}
    missing = [n for n in names if n not in values]
    if missing:
        print(f"run.py: throughput reported no {', '.join(missing)}",
              file=sys.stderr)
        return 1
    for e in res["errors"]:
        print(f"run.py: {args.workload}: {e}", file=sys.stderr)
    print(json.dumps({"correct": res["correct"],
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {n: values[n] for n in names}}))
    return 0


def micro_metrics():
    """micro_components folded in by name; whatever is missing or renamed
    is skipped, and nothing here is ever gated."""
    exe = os.path.join(BUILD, "bench", "micro_components")
    if not os.path.exists(exe):
        return {}
    try:
        out = subprocess.run(
            [exe, "--benchmark_format=json", "--benchmark_min_time=0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=TIMEOUT_S, check=True).stdout
        benches = json.loads(out).get("benchmarks", [])
    except (subprocess.SubprocessError, ValueError):
        return {}
    micro = {}
    for b in benches:
        name = b.get("name", "").replace("/", "_")
        if b.get("time_unit") == "ns" and "real_time" in b:
            micro[f"micro.{name}.ns"] = {"value": b["real_time"],
                                         "unit": "ns"}
        if "sim_cycles" in b:
            micro[f"micro.{name}.sim_cycles"] = {"value": b["sim_cycles"],
                                                 "unit": "cycles"}
    return micro


def checks(workload, res):
    """(description, passed, gating) for one workload's full result."""
    m = {**res["metrics"], **res["outputs"]}
    v = {k: x["value"] for k, x in m.items()}
    ras = workload == "ras-media"
    stall = workload == "stall-drain"
    return [
        ("no failed cell-run; traced digest equal to plain",
         res["failed"] == 0 and res["correct"], True),
        ("dram.frfcfs_speedup > 1", v["dram.frfcfs_speedup"] > 1, True),
        ("RAS probe and audits only on ras-media",
         (v["ras.probe.per_acc"] > 0 and v["fault.audit.per_acc"] > 0)
         if ras else
         (v["ras.probe.per_acc"] == 0 and v["fault.audit.per_acc"] == 0),
         True),
        ("design-N stalls only on stall-drain",
         (v["sim.stall.per_acc"] > 0) == stall, True),
        ("bench.layer_sum in [0.9, 1.1]",
         0.9 <= v["bench.layer_sum"] <= 1.1, False),
        ("bench.trace_overhead <= 0.15",
         v["bench.trace_overhead"] <= 0.15, False),
    ]


def full_run(args):
    if not build(["throughput"]):
        return 3
    smoke = args.smoke
    if not smoke and not build(["micro_components"]):
        print("run.py: micro_components did not build; skipping it",
              file=sys.stderr)
    seconds = 0 if smoke else args.seconds
    extra = ["--accesses", "20000", "--min-reps", "1"] if smoke else []
    report = {"seed": args.seed, "smoke": smoke, "seconds": seconds,
              "workloads": {}}
    ok = True
    for w in WORKLOADS:
        res = replay_workload(w, args.seed, seconds, True, extra)
        report["workloads"][w] = res
        print(f"== {w}: {res['cells']} cells x {res['accesses']} accesses, "
              f"{res['reps']} plain reps + 4 traced; attempted "
              f"{res['attempted']}, failed {res['failed']} "
              f"(failed_frac {res['failed'] / res['attempted']:.3g})")
        for e in res["errors"]:
            print(f"   error: {e}")
        for group in ("metrics", "outputs"):
            for name, m in res[group].items():
                print(f"   {name:32s} {m['value']:>16.6g} {m['unit']}")
        for what, passed, gating in checks(w, res):
            tag = "PASS" if passed else ("FAIL" if gating else "WARN")
            print(f"   [{tag}] {what}")
            ok = ok and (passed or not gating)
    if not smoke:
        report["micro"] = micro_metrics()
        print("== micro_components (not gated)")
        for name, m in report["micro"].items():
            print(f"   {name:40s} {m['value']:>14.6g} {m['unit']}")
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {args.out}")
    return 0 if ok else 1


def load_runs(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    runs = []
    for p in files:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base_path, head_path):
    base, head = load_runs(base_path), load_runs(head_path)
    regressions = 0
    print(f"{'workload':14s} {'metric':12s} {'base':>12s} {'head':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for w in WORKLOADS:
        for m in spec()["end_to_end"]:
            b = [r["workloads"][w]["metrics"][m["name"]]["value"]
                 for r in base if w in r["workloads"]]
            h = [r["workloads"][w]["metrics"][m["name"]]["value"]
                 for r in head if w in r["workloads"]]
            if not b or not h:
                continue
            mb, mh = statistics.median(b), statistics.median(h)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mh - mb) / mb
            noise = max(spread(b), spread(h))
            all_better = all(sign * (y - x) < 0 for x in b for y in h)
            if noise > m["bound"]:
                verdict = "better" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif worse < -noise:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{w:14s} {m['name']:12s} {mb:12.6g} {mh:12.6g} "
                  f"{(mh - mb) / mb:+8.1%} {m['bound']:6.0%} {noise:7.1%}  "
                  f"{verdict}")
    # Simulated outputs are deterministic per seed: any difference between
    # runs of one seed is a model change, never noise.
    seeds = {r["seed"] for r in base + head}
    if len(seeds) == 1:
        for w in WORKLOADS:
            outs = [r["workloads"][w]["outputs"] for r in base + head
                    if w in r["workloads"]]
            for name in sorted({k for o in outs for k in o}):
                vals = {o.get(name, {}).get("value") for o in outs}
                if len(vals) > 1:
                    print(f"CHANGED {w} {name}: {sorted(vals, key=str)}")
    else:
        print(f"simulated outputs not compared: seeds differ {sorted(seeds)}")
    return 1 if regressions else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=0,
                    help="plain-repetition budget per workload "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="20K accesses per cell, 1 rep, no micro")
    ap.add_argument("--out", default="BENCH_throughput.json")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args()
    args.seconds = args.seconds or spec()["run_seconds"]
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return one_workload(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
