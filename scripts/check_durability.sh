#!/usr/bin/env bash
# End-to-end kill-and-resume check for the durability layer.
#
# Runs one real sweep (fig13, scaled down) three ways:
#   1. reference  — uninterrupted, results into $WORK/ref
#   2. killed     — same sweep into $WORK/res, checkpointing every 50 ms,
#                   SIGKILL'd as soon as the journal holds a completed cell
#                   and at least one running cell has a checkpoint on disk
#                   (no clean shutdown: only those files survive, which is
#                   the point). A sweep that ends before both exist fails
#                   the check, since neither path would have run.
#   3. resumed    — rerun with --resume into the same $WORK/res
# and then diffs the two JSON artifacts modulo the documented
# non-deterministic fields (wall clock, attempts, resumed markers). Any
# other difference means resume broke the determinism contract.
#
# Also runs `ctest -L durability` first, so the unit layer gates the
# end-to-end layer.
#
# Usage: scripts/check_durability.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"
BENCH_NAME="fig13_granularity_10k"
BENCH="$BUILD_DIR/bench/$BENCH_NAME"

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$JOBS" --target "$BENCH_NAME" \
      hmm_durability_tests >/dev/null

ctest --test-dir "$BUILD_DIR" -L durability -j "$JOBS" --output-on-failure

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Strip the fields that legitimately differ between an uninterrupted run
# and a killed+resumed one (the JSON is pretty-printed, one field per line):
# host wall-clock time and the throughput derived from it, attempts, and
# the resumed/retried tallies.
VOLATILE='wall_seconds|wall_seconds_total|accesses_per_sec'
VOLATILE+='|accesses_per_sec_total|attempts|resumed|retried'
normalize() {
  grep -vE "\"($VOLATILE)\"" "$1"
}

JOURNAL="$WORK/res/$BENCH_NAME.journal"
CKPT_DIR="$WORK/res/$BENCH_NAME.ckpt"
live_checkpoints() {
  find "$CKPT_DIR" -maxdepth 1 -type f -name '*.ckpt' 2>/dev/null | wc -l
}

echo "[durability] reference sweep"
HMM_BENCH_SCALE="${HMM_BENCH_SCALE:-0.25}" HMM_RESULTS_DIR="$WORK/ref" \
  "$BENCH" --jobs "$JOBS" >"$WORK/ref_stdout" 2>/dev/null

echo "[durability] killed sweep (SIGKILL once a cell is journaled and" \
     "another has a checkpoint)"
set +e
HMM_BENCH_SCALE="${HMM_BENCH_SCALE:-0.25}" HMM_RESULTS_DIR="$WORK/res" \
  HMM_CKPT_INTERVAL=0.05 setsid "$BENCH" --jobs "$JOBS" \
  >"$WORK/kill_stdout" 2>/dev/null &
PID=$!
killed=0
while kill -0 "$PID" 2>/dev/null; do
  if [[ -f "$JOURNAL" ]] && (( $(live_checkpoints) > 0 )); then
    kill -KILL -- "-$PID" 2>/dev/null || kill -KILL "$PID" 2>/dev/null
    killed=1
    break
  fi
  sleep 0.01
done
wait "$PID" 2>/dev/null
set -e

if (( killed == 0 )); then
  echo "[durability] FAIL: the sweep finished before a journaled cell and a" \
       "checkpoint coexisted, so neither the kill nor the checkpoint path" \
       "ran (raise HMM_BENCH_SCALE to slow the sweep down)"
  exit 1
fi
echo "[durability] killed with $(grep -c . "$JOURNAL") journaled cell(s)" \
     "and $(live_checkpoints) checkpoint(s) on disk"

echo "[durability] resumed sweep (--resume)"
HMM_BENCH_SCALE="${HMM_BENCH_SCALE:-0.25}" HMM_RESULTS_DIR="$WORK/res" \
  "$BENCH" --jobs "$JOBS" --resume >"$WORK/res_stdout" 2>/dev/null

if [[ -f "$JOURNAL" ]]; then
  echo "[durability] FAIL: journal still present after a completed resume"
  exit 1
fi
if (( $(live_checkpoints) > 0 )); then
  echo "[durability] FAIL: checkpoints left behind after a completed resume"
  exit 1
fi

if ! diff <(normalize "$WORK/ref/$BENCH_NAME.json") \
          <(normalize "$WORK/res/$BENCH_NAME.json"); then
  echo "[durability] FAIL: resumed sweep diverged from the reference"
  exit 1
fi
if ! diff "$WORK/ref_stdout" "$WORK/res_stdout"; then
  echo "[durability] FAIL: resumed sweep printed a different table"
  exit 1
fi
echo "[durability] OK: killed+resumed sweep is identical to the reference"
