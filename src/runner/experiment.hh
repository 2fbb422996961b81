// Declarative experiment cells for the parallel sweep runner.
//
// A bench declares its sweep as a flat vector of ExperimentSpec cells
// (workload x controller config x trace length); the ExperimentRunner
// executes each cell as an isolated job, inline or in a fork()ed child,
// and returns CellResults in grid order, independent of scheduling.
//
// Determinism contract: every cell's RNG seed is derived as
// hash(base_seed, seed_key), never from process identity or launch
// time, so a sweep is bit-identical whether it runs 1 or 64 cells at once.
// Cells that must share a reference stream for paired comparison (e.g.
// the with/without-migration runs of one workload) set the same
// `seed_key`; by default the cell's unique `key` is used.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sim/memsim.hh"
#include "sim/run_result.hh"
#include "trace/workloads.hh"

namespace hmm::runner {

/// SplitMix64 finalizer: a well-mixed 64->64 bijection.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Per-cell seed: FNV-1a over the key, mixed with the sweep's base seed.
/// Depends only on (base_seed, key) — never on thread count or schedule.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t base_seed,
                                               std::string_view key) noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return splitmix64(h ^ splitmix64(base_seed));
}

/// One cell of a sweep grid.
struct ExperimentSpec {
  std::string key;        ///< unique, stable cell id, e.g. "fig13/FT/64KB"
  std::string seed_key;   ///< stream id; empty -> use `key`
  WorkloadInfo workload;  ///< generator factory (ignored if `job` is set)
  MemSimConfig config;
  std::uint64_t accesses = 0;
  /// Leading share of `accesses` replayed with instant migration, then
  /// dropped from the statistics.
  double warmup_fraction = 0.5;

  /// Optional override replacing the standard replay body (tests, derived
  /// cells). Receives the cell's derived seed.
  std::function<RunResult(std::uint64_t seed)> job;
};

/// Outcome of one cell. A throwing job is reported here (ok = false),
/// never propagated — one bad cell cannot take down the sweep.
struct CellResult {
  std::string key;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;
  /// Classified outcome of the last attempt:
  ///   "ok"          — completed, metrics valid
  ///   "failed"      — job threw (SimError other than Timeout, or any
  ///                   std::exception)
  ///   "timeout"     — exceeded the cell wall-clock budget
  ///   "crashed"     — isolated cell process killed by a signal (SIGSEGV...)
  ///   "error"       — isolated cell process exited abnormally (abort, OOM)
  ///   "interrupted" — sweep stopped by SIGINT/SIGTERM; a checkpoint was
  ///                   saved if checkpointing is enabled, and the cell is
  ///                   never journaled, so --resume finishes it
  std::string status = "failed";
  unsigned attempts = 0;  ///< 1 normally; 2 when the cell was retried
  /// Both attempts' wall time for a retried cell. Like the two throughput
  /// fields below it is host-dependent and excluded from comparisons.
  double wall_seconds = 0;
  /// References the attempt that produced `result` replayed, warm-up
  /// included (`result.accesses` for a custom `job`).
  std::uint64_t accesses_replayed = 0;
  /// accesses_replayed per wall second of that attempt alone.
  double accesses_per_sec = 0;
  RunResult result;
  /// True when this cell was replayed verbatim from a sweep journal
  /// (--resume) instead of being executed. Metrics are the recorded ones.
  bool resumed = false;
};

}  // namespace hmm::runner
