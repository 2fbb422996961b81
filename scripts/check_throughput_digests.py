#!/usr/bin/env python3
"""Pin the simulated outputs of bench/throughput's smoke run.

`bench/throughput/run.py --smoke --out throughput-smoke.json` replays
each workload's cells once at seed 42. Its own check only compares the
plain replay with the traced one, so a change that moves both the same
way (an output drift) passes it. This script compares each workload's
`sim.result_crc` digest, and ras-media's audit count, with the values
the seed-42 smoke run is pinned to.

It also caps the smoke run's `peak_rss_mb` on the two workloads that
run the line cache, whose tag store is most of their memory: 24 MiB on
cache-stream and 15 MiB on ras-media. Each ceiling sits about halfway
between the store at one 32-bit word per set (35.6 and 20.4 MiB) and at
the width the address space needs (11.8 and 8.4 MiB), so a store that
widens again fails here while allocator noise does not.

Usage: check_throughput_digests.py throughput-smoke.json
Exit: 0 when every pinned value matches and every ceiling holds; 1 on
any mismatch, missing value or exceeded ceiling, after printing the
expected and the found value of each.
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

# workload -> the highest seed-42 --smoke peak_rss_mb (MiB) that passes.
PEAK_RSS_CEILING_MB = {
    "cache-stream": 24,
    "ras-media": 15,
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
    workloads = report.get("workloads", {})

    def value(workload, group, metric):
        return workloads.get(workload, {}).get(group, {}).get(
            metric, {}).get("value")

    bad = 0
    for (workload, metric), want in PINNED.items():
        got = value(workload, "outputs", metric)
        if got != want:
            print(f"{workload} {metric}: expected {want}, found {got}",
                  file=sys.stderr)
            bad += 1
    for workload, ceiling in PEAK_RSS_CEILING_MB.items():
        got = value(workload, "metrics", "peak_rss_mb")
        if got is None or got > ceiling:
            print(f"{workload} peak_rss_mb: expected at most {ceiling}, "
                  f"found {got}", file=sys.stderr)
            bad += 1
    if bad:
        return 1
    print(f"{argv[1]}: all {len(PINNED)} pinned smoke outputs match and "
          f"all {len(PEAK_RSS_CEILING_MB)} peak_rss_mb ceilings hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
