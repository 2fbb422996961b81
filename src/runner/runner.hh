// ExperimentRunner: executes a declarative sweep grid, inline or one
// fork()ed child process per cell.
//
// Usage:
//   std::vector<ExperimentSpec> grid = ...;         // cells in print order
//   ExperimentRunner r({.jobs = 4});
//   std::vector<CellResult> cells = r.run(grid);    // grid order, always
//
// Guarantees:
//  * results come back in grid order regardless of scheduling;
//  * cell seeds derive from (base_seed, seed key) only, so jobs=1 and
//    jobs=N produce bit-identical RunResults (wall times aside);
//  * a throwing job becomes a failed CellResult; the sweep completes;
//  * jobs=1 runs every cell inline on the calling thread — exactly the
//    serial loop the benches used before this subsystem existed;
//  * jobs>1 runs each cell in its own fork()ed child, at most `jobs` at
//    once (supervisor.hh), so a crashing cell becomes one "crashed" or
//    "error" row instead of a dead sweep.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/experiment.hh"
#include "runner/progress.hh"

namespace hmm::runner {

struct RunnerOptions {
  /// Cells run at once; 0 = hardware concurrency, 1 = inline, more = one
  /// fork()ed child per cell.
  unsigned jobs = 0;
  std::uint64_t base_seed = 42;          ///< mixed into every cell seed
  ProgressObserver* observer = nullptr;  ///< optional; see progress.hh
  /// Per-cell wall-clock deadline in seconds; a cell exceeding it fails
  /// with status "timeout". 0 = no deadline.
  double cell_timeout_seconds = 0;
  // --- durability (fields appended; callers use designated initializers) ---
  /// JSONL journal of completed cells; empty = journaling disabled. With a
  /// journal, an interrupted/killed sweep rerun with `resume = true` skips
  /// every journaled cell and replays its recorded metrics bit-identically.
  std::string journal_path = {};
  /// Skip cells already recorded in `journal_path` (marked `resumed`) and
  /// restore their checkpoints. Without it a sweep starts fresh: an
  /// earlier sweep's journal and this grid's checkpoint files are dropped.
  bool resume = false;
  /// Directory for per-cell checkpoint files (<dir>/<key>.ckpt); empty =
  /// checkpointing disabled. A checkpoint is written on SIGINT/SIGTERM and
  /// every `checkpoint_interval_seconds`, and deleted when the cell ends.
  std::string checkpoint_dir = {};
  /// Periodic auto-checkpoint cadence in seconds; 0 = only on interrupt.
  double checkpoint_interval_seconds = 30;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(RunnerOptions opts = {});

  /// Executes all cells; blocks until the grid is complete.
  [[nodiscard]] std::vector<CellResult> run(
      const std::vector<ExperimentSpec>& grid);

  /// The standard cell body: build the workload at `seed`, run the replay
  /// sequence (sim/replay.hh) with `warmup_fraction` of the accesses as
  /// its warm-up, return the RunResult. Public so custom jobs can wrap it.
  [[nodiscard]] static RunResult replay(const ExperimentSpec& spec,
                                        std::uint64_t seed);

  /// Resolved cell concurrency (after the jobs=0 default).
  [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }

 private:
  [[nodiscard]] CellResult execute(const ExperimentSpec& spec) const;
  [[nodiscard]] CellResult attempt(const ExperimentSpec& spec,
                                   std::uint64_t seed,
                                   const std::string& ckpt_path) const;
  /// replay() with durability: restores `ckpt_path` when present, then
  /// runs the same replay loop with a hook that checkpoints every
  /// `checkpoint_interval_seconds`, and checkpoints and stops the cell
  /// when the sweep interrupt flag rises. One loop, so a run that
  /// completes, interrupted and resumed or not, is replay()'s run.
  /// `replayed` counts the references this call replayed (all of them,
  /// less whatever a restored checkpoint had already done).
  [[nodiscard]] RunResult durable_replay(const ExperimentSpec& spec,
                                         std::uint64_t seed,
                                         const std::string& ckpt_path,
                                         std::uint64_t& replayed) const;
  [[nodiscard]] std::string checkpoint_path(const ExperimentSpec& spec) const;

  unsigned jobs_;
  std::uint64_t base_seed_;
  ProgressObserver* observer_;
  double cell_timeout_;
  std::string journal_path_;
  bool resume_;
  std::string checkpoint_dir_;
  double checkpoint_interval_;
};

}  // namespace hmm::runner
