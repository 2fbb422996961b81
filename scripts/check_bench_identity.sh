#!/usr/bin/env bash
# Output identity between two builds, for a change that claims to leave
# every output bit-identical: build its parent commit and the change,
# then compare what the two builds print and write.
#
# In each build it runs the ten runner benches with --jobs 3 at
# HMM_BENCH_SCALE (default 0.1), each side into its own HMM_RESULTS_DIR,
# the four simulator examples at their ctest access counts, and the
# choreography model checker over all four designs (its state counts
# move with any byte of the translation table's snapshot, its dedup
# key). Then it compares, program by program:
#   * the exit status with the other side's (fault_resilience exits 1 on
#     both sides at small scales: its design-N watchdog cells count as
#     failed);
#   * stdout, byte for byte;
#   * every JSON artifact, less the host wall-clock fields wall_seconds,
#     wall_seconds_total, accesses_per_sec and accesses_per_sec_total.
# It exits 1 and names the first file that differs.
#
# Usage: scripts/check_bench_identity.sh BASE_BUILD HEAD_BUILD
#   (both build trees already built, e.g. `cmake --build BUILD`)
set -euo pipefail

if (( $# != 2 )); then
  echo "usage: $0 BASE_BUILD HEAD_BUILD" >&2
  exit 2
fi
BASE="$(cd "$1" && pwd)"
HEAD="$(cd "$2" && pwd)"
SCALE="${HMM_BENCH_SCALE:-0.1}"

BENCHES=(fig11_swap_algorithms fig12_granularity_1k fig13_granularity_10k
         fig14_granularity_100k fig15_capacity_sensitivity fig16_power
         table4_effectiveness fault_resilience ras_availability
         scheme_faceoff)
# name:accesses, as examples/CMakeLists.txt registers them with ctest.
EXAMPLES=(quickstart:20000 database_server:5000 hpc_stencil:20000
          adaptive_tuning:2000)

need() {
  [[ -x "$1" ]] && return
  echo "[identity] missing $1 (build it first)" >&2
  exit 2
}
MODELCHECK=tools/modelcheck/modelcheck
for build in "$BASE" "$HEAD"; do
  for b in "${BENCHES[@]}"; do need "$build/bench/$b"; done
  for spec in "${EXAMPLES[@]}"; do need "$build/examples/${spec%%:*}"; done
  need "$build/$MODELCHECK"
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Runs every program of build $2 with $WORK/$1 as its working directory,
# keeping each one's stdout and exit status there.
run_side() {
  local out="$WORK/$1" build="$2" status
  mkdir -p "$out/results"
  cd "$out"
  for b in "${BENCHES[@]}"; do
    status=0
    HMM_BENCH_SCALE="$SCALE" HMM_RESULTS_DIR="$out/results" \
      "$build/bench/$b" --jobs 3 >"$b.stdout" 2>/dev/null || status=$?
    echo "$status" >"$b.status"
  done
  for spec in "${EXAMPLES[@]}"; do
    local name="${spec%%:*}" n="${spec##*:}"
    status=0
    "$build/examples/$name" "$n" >"$name.stdout" 2>/dev/null || status=$?
    echo "$status" >"$name.status"
  done
  status=0
  "$build/$MODELCHECK" --design all >modelcheck.stdout 2>/dev/null ||
    status=$?
  echo "$status" >modelcheck.status
  cd - >/dev/null
}

echo "[identity] base: $BASE"
run_side base "$BASE"
echo "[identity] head: $HEAD"
run_side head "$HEAD"

VOLATILE='wall_seconds|wall_seconds_total|accesses_per_sec'
VOLATILE+='|accesses_per_sec_total'
# The JSON is pretty-printed, one field per line.
normalize() {
  grep -vE "\"($VOLATILE)\"" "$1" || true
}

files="$( (cd "$WORK/base" && find . -type f
            cd "$WORK/head" && find . -type f) | sort -u)"
n=0
while IFS= read -r f; do
  f="${f#./}"
  a="$WORK/base/$f"
  b="$WORK/head/$f"
  if [[ ! -f "$a" || ! -f "$b" ]]; then
    echo "[identity] FAIL: $f exists on one side only"
    exit 1
  fi
  same=0
  if [[ "$f" == *.json ]]; then
    diff <(normalize "$a") <(normalize "$b") >"$WORK/diff" && same=1
  else
    diff "$a" "$b" >"$WORK/diff" && same=1
  fi
  if (( same == 0 )); then
    echo "[identity] FAIL: $f differs (base <, head >):"
    head -20 "$WORK/diff"
    exit 1
  fi
  n=$((n + 1))
done <<<"$files"
echo "[identity] OK: $n outputs identical (HMM_BENCH_SCALE=$SCALE)"
