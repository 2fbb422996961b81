// The pluggable memory-scheme interface (the "scheme zoo").
//
// A MemoryScheme is everything design-specific about a heterogeneous main
// memory: placement policy, migration/fill policy, hotness or tag
// tracking, and the per-scheme statistics. MemSim owns exactly one scheme
// and drives it through this interface, so the paper's controller (the
// N / N-1 / Live designs and nomad, all one SwapScheme) and the competing
// die-stacked-DRAM designs (flat-HMA, MemCache and its pure-cache Alloy
// preset) replay the same traces through the same DRAM models, fault
// injector, invariant auditor, snapshot codec, and sweep runner.
//
// Obligations of an implementation (DESIGN.md §"Scheme zoo"):
//   * deterministic: no wall clock, no unseeded RNG;
//   * snapshot-complete: one io() codec names every evolving member at
//     an explicit wire width, and save()/restore() are one-line wrappers
//     over it;
//   * audit-ready: audit_check() cross-checks redundant internal state,
//     a whole-state recount covering only the audit's window;
//   * fault-tolerant: injected faults at the sites it opts into must
//     surface as structured errors or stay provably benign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/params.hh"
#include "common/snapshot.hh"
#include "common/types.hh"
#include "core/geometry.hh"
#include "core/migration.hh"
#include "fault/auditor.hh"

namespace hmm::ras {
class RasEngine;
}

namespace hmm {

/// The paper's controller configuration. Every scheme reads the geometry
/// (flat-HMA also the epoch length); the rest configures the swap designs,
/// whose design the registry derives from the scheme name.
struct ControllerConfig {
  Geometry geom;
  bool migration_enabled = true;
  /// Accesses per monitoring epoch ("swap interval" of Section IV).
  std::uint64_t swap_interval = 10'000;
  /// Perfect-knowledge hotness (ablation upper bound) instead of MQ.
  bool oracle_hotness = false;

  /// Table updates are OS routines below kPureHardwareMinPage pages; pure
  /// hardware tracks coarser pages (Section III-B).
  [[nodiscard]] bool is_os_assisted() const noexcept {
    return geom.page_bytes < params::kPureHardwareMinPage;
  }
};

}  // namespace hmm

namespace hmm::schemes {

/// Routing decision for one demand access, the one every scheme returns.
struct SchemeDecision {
  Route route;
  /// Cycles the access must additionally wait before issue (translation
  /// pipeline, miss determination, OS stalls, design-N blocking).
  Cycle extra_latency = 0;
  /// Design N only: demand may not issue until migration finishes.
  bool stall_until_idle = false;
};

/// Scheme-owned slice of the RunResult; MemSim copies these fields into
/// the result so run_result.hh never depends on any concrete scheme.
struct SchemeMetrics {
  double on_package_fraction = 0;  ///< share of accesses served on-package
  std::uint64_t swaps = 0;         ///< completed swap/placement operations
  std::uint64_t migrated_bytes = 0;  ///< background copy/fill traffic
  std::uint64_t os_stall_cycles = 0;
  // Fault outcomes (zero for schemes without retry choreography).
  std::uint64_t chunk_retries = 0;
  std::uint64_t chunks_dropped = 0;
  std::uint64_t swap_aborts = 0;
  bool degraded = false;
  Cycle degraded_at = 0;
};

class MemoryScheme : public fault::Auditable {
 public:
  ~MemoryScheme() override = default;

  /// Registry name ("N", "N-1", "Live", "nomad", "Alloy", "flat-HMA",
  /// "MemCache").
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Route + track one demand access; may start background work.
  [[nodiscard]] virtual SchemeDecision on_access(PhysAddr addr,
                                                 AccessType type,
                                                 Cycle now) = 0;

  /// Pure translation with the scheme's current placement (no tracking).
  [[nodiscard]] virtual Route translate(PhysAddr addr) const = 0;

  /// Background-priority DRAM completions are fed here (demand
  /// completions stay in MemSim's latency bookkeeping).
  virtual void on_background_completion(const DramCompletion& c,
                                        Region from) = 0;

  /// False while a background operation holds state that a future
  /// completion must advance (drives MemSim's wedge watchdog).
  [[nodiscard]] virtual bool background_idle() const noexcept = 0;

  /// Copy chunks currently streaming (0 for schemes without choreography).
  [[nodiscard]] virtual std::size_t in_flight_chunks() const noexcept {
    return 0;
  }

  /// Warm-up fast-forward: background placement applies instantly with no
  /// copy traffic. Never use while measuring.
  virtual void set_instant(bool on) = 0;

  /// Attach a fault injector (nullptr detaches). Not owned.
  virtual void set_fault_injector(fault::FaultInjector* inj) = 0;

  /// Attach the RAS engine (nullptr detaches). Not owned. The scheme
  /// becomes responsible for servicing pending frame retirements through
  /// its own placement machinery and for never placing new data in a
  /// quarantined frame; the default is for RAS-unaware schemes.
  virtual void set_ras(ras::RasEngine* ras) { (void)ras; }

  /// The scheme's translation table, or nullptr for table-less schemes
  /// (gates the TableBitFlip fault site and the auditor's table sweep).
  [[nodiscard]] virtual TranslationTable* mutable_table() noexcept {
    return nullptr;
  }

  [[nodiscard]] virtual SchemeMetrics metrics() const = 0;

  /// Checkpoint/restore of everything that evolves after construction.
  virtual void save(snap::Writer& w) const = 0;
  virtual void restore(snap::Reader& r) = 0;

  // fault::Auditable: table-less schemes inherit the null default and
  // implement audit_check(); SwapScheme overrides both.
  [[nodiscard]] const TranslationTable* audited_table()
      const noexcept override {
    return nullptr;
  }
};

}  // namespace hmm::schemes
