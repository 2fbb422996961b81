#!/usr/bin/env python3
"""Pin the simulated outputs of bench/throughput's smoke run.

`bench/throughput/run.py --smoke --out throughput-smoke.json` replays
each workload's cells once at seed 42. Its own check only compares the
plain replay with the traced one, so a change that moves both the same
way (an output drift) passes it. This script compares each workload's
`sim.result_crc` digest, and ras-media's audit count, with the values
the seed-42 smoke run is pinned to.

Usage: check_throughput_digests.py throughput-smoke.json
Exit: 0 when every pinned value matches; 1 on any mismatch or missing
value, after printing the expected and the found value of each.
"""

import json
import sys

# (workload, output metric) -> the seed-42 --smoke value.
PINNED = {
    ("swap-skewed", "sim.result_crc"): 728427474,
    ("cache-stream", "sim.result_crc"): 1432889007,
    ("stall-drain", "sim.result_crc"): 302678661,
    ("ras-media", "sim.result_crc"): 241486134,
    ("ras-media", "fault.audits"): 8,
}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        report = json.load(f)
    if report.get("seed") != 42 or report.get("smoke") is not True:
        print(f"{argv[1]}: not a seed-42 --smoke report "
              f"(seed={report.get('seed')!r}, smoke={report.get('smoke')!r})",
              file=sys.stderr)
        return 1
    bad = 0
    for (workload, metric), want in PINNED.items():
        outputs = report.get("workloads", {}).get(workload, {}).get(
            "outputs", {})
        got = outputs.get(metric, {}).get("value")
        if got != want:
            print(f"{workload} {metric}: expected {want}, found {got}",
                  file=sys.stderr)
            bad += 1
    if bad:
        return 1
    print(f"{argv[1]}: all {len(PINNED)} pinned smoke outputs match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
