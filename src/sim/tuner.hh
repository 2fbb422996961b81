// Adaptive migration-granularity tuning (Section IV-B: "it is necessary
// for the memory controller to adaptively change the migration
// granularity according to different types of workloads" — proposed by
// the paper, implemented here as an extension).
//
// The tuner plays the role of the OS daemon the paper sketches: it probes
// candidate macro-page sizes with short measurement windows on the live
// reference stream (successive halving: cheap windows eliminate weak
// candidates, survivors get longer windows) and settles on the
// granularity with the lowest average memory latency.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/memsim.hh"
#include "trace/generator.hh"

namespace hmm {

struct TunerConfig {
  std::vector<std::uint64_t> candidate_pages = {
      4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB};
  std::uint64_t probe_accesses = 60'000;  ///< first-round window
  unsigned rounds = 2;          ///< halvings (window doubles per round)
};

struct ProbeResult {
  std::uint64_t page_bytes = 0;
  double avg_latency = 0;
  double on_package_fraction = 0;
};

struct TunerOutcome {
  std::uint64_t best_page_bytes = 0;
  double best_latency = 0;
  /// Every probe run, in evaluation order (for reporting/plotting).
  std::vector<ProbeResult> probes;
};

/// Each probe runs MemSimConfig's default scheme ("Live") on the default
/// Geometry with the candidate page size (sub-blocks capped at the page).
class GranularityTuner {
 public:
  static constexpr std::uint64_t kSwapInterval = 1'000;
  /// Share of each probe window spent in the instant-migration warm-up.
  static constexpr double kWarmupFraction = 0.5;

  using WorkloadFactory =
      std::function<std::unique_ptr<SyntheticWorkload>(std::uint64_t seed)>;

  explicit GranularityTuner(const TunerConfig& cfg) : cfg_(cfg) {}

  /// Successive-halving search over candidate granularities.
  [[nodiscard]] TunerOutcome tune(const WorkloadFactory& make,
                                  std::uint64_t seed = 1) const;

 private:
  [[nodiscard]] ProbeResult probe(const WorkloadFactory& make,
                                  std::uint64_t page, std::uint64_t window,
                                  std::uint64_t seed) const;

  TunerConfig cfg_;
};

}  // namespace hmm
