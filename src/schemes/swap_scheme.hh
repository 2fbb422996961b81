// The paper's heterogeneity-aware on-chip memory controller (Fig 3) as
// one MemoryScheme: the swap designs N, N-1, Live, and nomad.
//
// Front stage: the physical->machine Address Translation (moved ahead of
// transaction scheduling, so each access is routed to the on-package or
// off-package region first and the two regions schedule independently —
// the per-region scheduling lives in dram::DramSystem).
//
// Side stage: the Migration Controller — hotness monitoring (clock
// pseudo-LRU on-package, multi-queue off-package), the hottest-coldest
// trigger evaluated once per swap-interval epoch (nomad: the
// hole-directed trigger), and the MigrationEngine that performs the
// Fig 8 choreography in the background.
//
// Implementation flavours (Section III-B), decided by page granularity:
//  * pure hardware — feasible for macro pages >= 1MB; no per-update cost;
//  * OS-assisted  — required below 1MB; every translation-table update
//    costs a user/kernel switch (~127 cycles [19]) charged to the CPU.
#pragma once

#include <cstdint>
#include <string>

#include "core/hotness.hh"
#include "core/migration.hh"
#include "core/translation_table.hh"
#include "ras/ras.hh"
#include "schemes/scheme.hh"

namespace hmm::schemes {

class SwapScheme final : public MemoryScheme {
 public:
  struct Stats {
    std::uint64_t accesses = 0;
    std::uint64_t on_package_hits = 0;   ///< accesses routed on-package
    std::uint64_t off_package_hits = 0;
    std::uint64_t fill_forwards = 0;     ///< served by a filling slot
    std::uint64_t swap_attempts = 0;     ///< trigger fired
    std::uint64_t swaps_rejected = 0;    ///< engine busy / invalid pair
    std::uint64_t os_stall_cycles = 0;
  };

  /// Builds the table (in `table_mode(design)`) and engine for `design`.
  SwapScheme(MigrationDesign design, const ControllerConfig& cfg,
             DramSystem& on_package, DramSystem& off_package);

  [[nodiscard]] const char* name() const noexcept override {
    return to_string(engine_.design());
  }
  /// Translate + monitor one demand access; may trigger a swap.
  [[nodiscard]] SchemeDecision on_access(PhysAddr addr, AccessType type,
                                         Cycle now) override;
  [[nodiscard]] Route translate(PhysAddr addr) const override {
    return table_.translate(addr);
  }
  void on_background_completion(const DramCompletion& c,
                                Region from) override {
    engine_.on_completion(c, from);
  }
  [[nodiscard]] bool background_idle() const noexcept override {
    return engine_.idle();
  }
  [[nodiscard]] std::size_t in_flight_chunks() const noexcept override {
    return engine_.in_flight_chunks();
  }
  /// Warm-up fast-forward (see MigrationEngine::set_instant).
  void set_instant(bool on) override { engine_.set_instant(on); }
  /// The scheme's own fault site is HotnessCorrupt: an off-package access
  /// gets recorded against a scrambled page id.
  void set_fault_injector(fault::FaultInjector* inj) override {
    injector_ = inj;
    engine_.set_fault_injector(inj);
  }
  /// The scheme then runs evacuations: each access it first
  /// retires/evacuates/pins pending failing frames through the migration
  /// engine, and the table starts enforcing retired-frame invariants.
  void set_ras(ras::RasEngine* ras) override {
    ras_ = ras;
    table_.set_ras_view(ras);
  }
  [[nodiscard]] TranslationTable* mutable_table() noexcept override {
    return &table_;
  }
  [[nodiscard]] SchemeMetrics metrics() const override;
  /// Covers the table, engine, and trackers; the config is not serialized.
  void save(snap::Writer& w) const override;
  void restore(snap::Reader& r) override;
  [[nodiscard]] const TranslationTable* audited_table()
      const noexcept override {
    return &table_;
  }
  /// Hotness-tracker self-check (the table has its own validate()); runs
  /// in full on every audit, whatever the window.
  [[nodiscard]] std::string audit_check(
      const fault::AuditWindow& window) const override;

  [[nodiscard]] const TranslationTable& table() const noexcept {
    return table_;
  }
  [[nodiscard]] const MigrationEngine& engine() const noexcept {
    return engine_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Test-only: the multi-queue tracker, exposed so auditor tests can
  /// corrupt it and prove the audit path surfaces the mismatch.
  [[nodiscard]] MultiQueueTracker& mq_for_test() noexcept { return mq_; }

 private:
  template <class Ar>
  void io(Ar& ar);
  void consider_swap(Cycle now);
  /// Nomad: hole-directed trigger — promote the hottest off-package page
  /// into an on-package hole, or demote the coldest resident when the
  /// hole is off-package (DESIGN.md §10).
  void consider_migration(Cycle now);
  /// Charges `updates` OS table-update routines to the CPU when the page
  /// granularity makes the design OS-assisted.
  void charge_os_updates(Cycle updates);
  /// Epoch boundary for the trackers the trigger just consulted.
  void reset_epoch();
  [[nodiscard]] MultiQueueTracker::Hottest hottest() const noexcept {
    return cfg_.oracle_hotness ? oracle_.hottest() : mq_.hottest();
  }
  /// Stop tracking `page` (it just moved on-package).
  void forget(PageId page) noexcept;
  /// Hottest-coldest rule: move only when the off-package MRU page is
  /// accessed more often than the on-package LRU page. MQ counts halve
  /// once per epoch, so their steady-state value is ~2x the per-epoch
  /// rate; the oracle's counts are exact per-epoch rates.
  [[nodiscard]] bool hotter_than(const MultiQueueTracker::Hottest& hot,
                                 std::uint64_t cold_count) const noexcept;
  /// RAS retirement step, run on every access: finish the in-flight
  /// evacuation, abort a swap that touches a newly failing frame, and
  /// start the next evacuation (or retire data-free frames / pin frames
  /// the design cannot evacuate).
  void ras_service(Cycle now);
  /// Retire data-free `frame`; a nomad hole must first be relocated onto
  /// a spare, and a dry pool pins it instead.
  void retire_data_free(PageId frame, Cycle now);

  ControllerConfig cfg_;  // no-snapshot(construction-time config)
  TranslationTable table_;
  MigrationEngine engine_;
  SlotClockTracker slot_tracker_;
  MultiQueueTracker mq_;
  OracleTracker oracle_;
  Stats stats_;
  std::uint64_t since_epoch_ = 0;
  Cycle pending_os_stall_ = 0;
  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
  ras::RasEngine* ras_ = nullptr;  ///< not owned; may be null
  /// Frame whose evacuation the engine is currently running; serialized
  /// at the end of 'HMCT' only when RAS is attached.
  PageId evac_frame_ = kInvalidPage;
};

}  // namespace hmm::schemes
