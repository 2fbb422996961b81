// Synthetic workload generator: a weighted mixture of access patterns with
// phase behaviour, per-CPU attribution, read/write mix, and geometric
// inter-arrival gaps. This is the trace substitute for the paper's
// COTSon-collected workload traces (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/types.hh"
#include "trace/patterns.hh"
#include "trace/record.hh"

namespace hmm {

struct MixtureComponent {
  std::unique_ptr<Pattern> pattern;
  double weight = 1.0;
  /// CPU this component is attributed to; -1 = rotate across all CPUs.
  int cpu = -1;
};

class SyntheticWorkload {
 public:
  struct Params {
    std::string name;
    std::string description;
    std::uint64_t footprint_bytes = 0;
    double read_fraction = 0.7;
    /// Mean cycles between successive main-memory references (aggregate
    /// over all cores); sets memory intensity and hence queueing.
    double mean_gap_cycles = 40.0;
    unsigned cpus = 4;
    /// Accesses per phase; 0 = no phase behaviour.
    std::uint64_t phase_length = 0;
    std::uint64_t seed = 1;
  };

  SyntheticWorkload(Params p, std::vector<MixtureComponent> components);

  TraceRecord next();

  [[nodiscard]] const std::string& name() const noexcept { return p_.name; }
  [[nodiscard]] const std::string& description() const noexcept {
    return p_.description;
  }
  [[nodiscard]] std::uint64_t footprint() const noexcept {
    return p_.footprint_bytes;
  }
  [[nodiscard]] std::uint64_t emitted() const noexcept { return emitted_; }

  /// Checkpoint/restore of the generator cursor (RNG, clock, emit count)
  /// and each component pattern's mutable state. The mixture itself must
  /// be rebuilt identically (same workload + seed) before restoring.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  template <class Ar>
  void io(Ar& ar);

  Params p_;  // no-snapshot(construction-time config)
  std::vector<MixtureComponent> comps_;
  // no-snapshot(derived from the component weights in the ctor)
  std::vector<double> cum_weight_;
  // no-snapshot(derived from mean_gap_cycles in the ctor)
  Geometric gap_;
  Pcg32 rng_;
  Cycle now_ = 0;
  std::uint64_t emitted_ = 0;
  unsigned rr_cpu_ = 0;
};

}  // namespace hmm
