// Trace-driven main-memory simulator (Section IV).
//
// Replays a reference stream through a pluggable MemoryScheme (the paper's
// heterogeneity-aware controller is the swap scheme; the zoo adds
// cache-style alternatives): translation + hotness/tag tracking + swap or
// fill triggering, demand requests into the per-region cycle-level DRAM
// models, background copy traffic interleaved with demand, and (design N)
// full stalls during swaps.
//
// The replay is open-loop on trace timestamps with a bounded-outstanding
// throttle: when a region's demand backlog exceeds the limit (finite MSHRs
// / request queue), time slips forward until the queue drains — the same
// back-pressure a real CPU would see.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/stats.hh"
#include "fault/auditor.hh"
#include "fault/fault_injector.hh"
#include "power/energy_model.hh"
#include "ras/ras.hh"
#include "schemes/scheme.hh"
#include "sim/run_result.hh"
#include "trace/generator.hh"

namespace hmm {

struct MemSimConfig {
  ControllerConfig controller;
  /// Registry name of the memory scheme to simulate, and the only design
  /// selector: "N", "N-1", "Live", "nomad", "Alloy", "flat-HMA" or
  /// "MemCache". Any other name, "" included, throws SimError at
  /// construction.
  std::string scheme = "Live";
  /// MemCache knob: on-package fraction operated as a cache, in [0, 1]
  /// (anything else throws SimError at construction). "Alloy" ignores
  /// it and runs with 1.0.
  double cache_fraction = 0.5;
  std::size_t max_demand_backlog = 48;
  /// Reference modes for the Fig 11 guide lines.
  enum class Force : std::uint8_t { None, AllOffPackage, AllOnPackage };
  Force force = Force::None;
  /// Fault-injection plan (empty = no faults, zero overhead, bit-identical
  /// to a build without the hooks).
  fault::FaultPlan fault;
  /// RAS layer (media-error model, scrub, page retirement); disabled by
  /// default — every hook is absent and runs are bit-identical to pre-RAS.
  ras::RasConfig ras;
  /// Invariant audit every this many accesses (0 = disabled). Each audit
  /// runs the cheap checks in full and recounts a rolling sixteenth of
  /// MemCache's tag store and of the RAS route sweep; finish() adds one
  /// uncounted full sweep. A corruption is thus reported within
  /// 16 × audit_interval accesses or by the end of the run.
  std::uint64_t audit_interval = 0;
  /// Wall-clock budget for this simulation, measured from construction;
  /// exceeded => SimError(Timeout). 0 = no deadline.
  double max_wall_seconds = 0;
};

class MemSim {
 public:
  explicit MemSim(const MemSimConfig& cfg);

  /// Replays `n` references from the generator; callable repeatedly.
  void run(SyntheticWorkload& workload, std::uint64_t n);
  /// Like run() but without the implicit finish(): replays exactly `n`
  /// references and returns. run(w, n) == run_chunk(w, n) + finish(), so a
  /// run interleaved with checkpoints replays the same step sequence as an
  /// uninterrupted one.
  void run_chunk(SyntheticWorkload& workload, std::uint64_t n);
  /// Single-record entry point (tests / custom drivers).
  void step(const TraceRecord& r);
  /// Completes all in-flight work, then (when auditing is on) runs one
  /// full audit that audits() does not count; call before reading
  /// results.
  void finish();

  /// Clears measurement state (latency stats, traffic counters) while
  /// keeping all architectural state — call after a warm-up run.
  void reset_stats();

  [[nodiscard]] RunResult result() const;

  /// The simulated scheme (always valid).
  [[nodiscard]] schemes::MemoryScheme& scheme() noexcept { return *scheme_; }
  [[nodiscard]] const schemes::MemoryScheme& scheme() const noexcept {
    return *scheme_;
  }
  /// Warm-up fast-forward, scheme-generic (see MemoryScheme::set_instant).
  void set_instant_migration(bool on) { scheme_->set_instant(on); }
  [[nodiscard]] DramSystem& on_package() noexcept { return on_; }
  [[nodiscard]] DramSystem& off_package() noexcept { return off_; }
  [[nodiscard]] const fault::FaultInjector& injector() const noexcept {
    return injector_;
  }
  [[nodiscard]] const fault::InvariantAuditor& auditor() const noexcept {
    return auditor_;
  }
  /// The RAS engine, or nullptr when `cfg.ras.enabled` is false.
  [[nodiscard]] const ras::RasEngine* ras_engine() const noexcept {
    return ras_.get();
  }
  /// Mutable form, for tests that flag frames deterministically.
  [[nodiscard]] ras::RasEngine* mutable_ras() noexcept { return ras_.get(); }

  /// Checkpoint/restore of the complete simulator state. The restoring
  /// side must construct MemSim with the same MemSimConfig; save() covers
  /// everything that evolves after construction (the scheme with its
  /// table, engine and trackers, both DRAM systems with the demand
  /// bookkeeping their requests carry, injector, auditor, pacing clocks,
  /// latency stats). The wall-clock deadline intentionally restarts at restore
  /// time: a resumed cell gets a fresh budget rather than inheriting
  /// elapsed time from a dead process.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

  /// Issue context of one demand access, for replay loops built outside
  /// MemSim from its public calls (bench/throughput's Mirror names it).
  /// MemSim itself carries the context in the DRAM request: `issued` and
  /// the access type come back in the DramCompletion.
  struct Outstanding {
    Cycle issued = 0;
    Cycle extra = 0;
    bool is_read = true;
  };

 private:
  template <class Ar>
  void io(Ar& ar);
  void pump(Cycle now);
  Cycle force_migration_idle(Cycle now);
  /// Hands one completion to its owner: the scheme for background copies,
  /// the latency stats for demand.
  void handle_completion(const DramCompletion& c, Region region);
  void throttle(DramSystem& sys, Cycle& now);
  void check_deadline() const;
  /// Raises SimError(Watchdog) when simulated time can no longer advance:
  /// the engine holds an unfinished swap but nothing is in flight anywhere.
  void check_wedged() const;
  /// Auditor route sweep: no OS page in `window`'s share, and no retired
  /// frame's identity page, may route to a retired frame.
  [[nodiscard]] std::string ras_route_sweep(
      const fault::AuditWindow& window) const;

  MemSimConfig cfg_;  // no-snapshot(construction-time config)
  DramSystem on_;
  DramSystem off_;
  std::unique_ptr<schemes::MemoryScheme> scheme_;
  fault::FaultInjector injector_;
  /// Present only when cfg.ras.enabled; serialized after the auditor.
  std::unique_ptr<ras::RasEngine> ras_;
  fault::InvariantAuditor auditor_;
  // analyze: allow(determinism): watchdog clock, never simulated state
  std::chrono::steady_clock::time_point started_;  // no-snapshot(wall-clock)

  std::uint64_t deadline_check_ = 0;

  Cycle slip_ = 0;       ///< accumulated back-pressure shift
  Cycle last_now_ = 0;   ///< arrival pacing (trace-time, monotone)
  Cycle end_time_ = 0;   ///< includes post-trace drain
  Cycle blocked_until_ = 0;  ///< design N: end of the current halting swap
  RunningStat latency_;
  RunningStat read_latency_;
  RunningStat write_latency_;
  RunningStat on_latency_;
  RunningStat off_latency_;
  Log2Histogram latency_hist_;
};

}  // namespace hmm
