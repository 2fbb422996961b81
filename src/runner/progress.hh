// Progress reporting for long sweeps: cells done, ETA, per-job wall time.
#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <mutex>

#include "common/stats.hh"
#include "runner/experiment.hh"

namespace hmm::runner {

/// Observes sweep execution. Every callback arrives on the thread that
/// called ExperimentRunner::run(), never from a cell's child process:
/// on_start, one on_cell_done per cell in completion order, on_finish.
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;
  virtual void on_start(std::size_t total_cells, unsigned jobs) {
    (void)total_cells;
    (void)jobs;
  }
  virtual void on_cell_done(const CellResult& cell, std::size_t done,
                            std::size_t total) {
    (void)cell;
    (void)done;
    (void)total;
  }
  /// `wall` aggregates per-job wall time (count = cells, mean/min/max in
  /// seconds); `elapsed_seconds` is the sweep's wall-clock span.
  virtual void on_finish(const RunningStat& wall, double elapsed_seconds) {
    (void)wall;
    (void)elapsed_seconds;
  }
};

/// Prints throttled progress lines ("[12/108] fig13/FT/64KB 0.31s ETA 8s")
/// and a closing per-job timing summary. Thread-safe, so one instance may
/// serve sweeps run from several threads; reusable across sweeps within
/// one binary.
class ConsoleProgress final : public ProgressObserver {
 public:
  /// `os` is typically std::cerr so result tables on stdout stay clean.
  /// `every` throttles per-cell lines (0 = auto: ~20 lines per sweep).
  explicit ConsoleProgress(std::ostream& os, std::size_t every = 0);

  void on_start(std::size_t total_cells, unsigned jobs) override;
  void on_cell_done(const CellResult& cell, std::size_t done,
                    std::size_t total) override;
  void on_finish(const RunningStat& wall, double elapsed_seconds) override;

 private:
  std::ostream& os_;
  std::size_t every_cfg_;
  std::size_t every_ = 1;
  std::mutex mu_;
  std::chrono::steady_clock::time_point start_{};
  std::size_t failures_ = 0;
};

}  // namespace hmm::runner
