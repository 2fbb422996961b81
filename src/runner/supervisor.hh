// Process-level crash isolation for sweep cells, plus the sweep-wide
// interrupt flag.
//
// With RunnerOptions::jobs > 1 each cell runs in a fork()ed child: the
// cell body executes there, serializes its CellResult onto a pipe, and
// exits. The parent — which runs no other threads, so the fork is
// async-signal-safe — reaps children, reads their blobs, and classifies
// every outcome:
//   exit 0               -> the child's own classification (ok/failed/...)
//   exit kInterruptedExit-> "interrupted" (checkpoint saved, resumable)
//   other exit codes     -> "error"   (e.g. std::abort via HMM_CHECK, OOM
//                           killers that exit, a bad_alloc terminate)
//   killed by a signal   -> "crashed" (SIGSEGV and friends)
//   parent deadline hit  -> "timeout" (SIGKILL after 2x the cell budget)
// A SIGSEGV in one cell therefore becomes one "crashed" row in the
// results JSON while every sibling completes.
//
// The interrupt flag is process-global: install_interrupt_handlers() maps
// SIGINT/SIGTERM onto it, children inherit the handler, and the durable
// replay loop polls it between access chunks (checkpoint, then exit).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/experiment.hh"

namespace hmm::runner {

/// Exit code a child uses for "interrupted, checkpoint saved" (the BSD
/// EX_TEMPFAIL convention: retry later).
inline constexpr int kInterruptedExit = 75;

/// True once SIGINT/SIGTERM was received (or request_interrupt() called).
[[nodiscard]] bool interrupt_requested() noexcept;
/// Raises the flag programmatically (tests, embedding runners).
void request_interrupt() noexcept;
/// Clears the flag (between independent sweeps in one process / tests).
void clear_interrupt() noexcept;
/// Installs SIGINT/SIGTERM handlers that raise the flag. Idempotent.
void install_interrupt_handlers();

class Supervisor {
 public:
  struct Options {
    unsigned jobs = 1;           ///< max concurrent children
    double cell_timeout = 0;     ///< child budget in seconds; 0 = none
  };

  /// Runs `fn` inside the child for the cell at grid index `i`.
  using CellFn = std::function<CellResult(std::size_t i)>;
  /// Called in the parent, in completion order, once per scheduled index.
  using DoneFn = std::function<void(std::size_t i, CellResult cell)>;

  explicit Supervisor(Options opts) : opts_(opts) {}

  /// Executes the cells named by `todo` (indices into the caller's grid),
  /// launching them in order. Blocks until every launched child is
  /// reaped. When the interrupt flag rises, stops launching and forwards
  /// SIGTERM to running children. Returns how many cells it launched: the
  /// caller reports the rest of `todo`, which never ran. Never throws
  /// past a fork.
  [[nodiscard]] std::size_t run(const std::vector<ExperimentSpec>& grid,
                                const std::vector<std::size_t>& todo,
                                const CellFn& fn, const DoneFn& done);

 private:
  Options opts_;
};

}  // namespace hmm::runner
