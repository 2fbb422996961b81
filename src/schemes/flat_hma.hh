// Flat static-HMA scheme: OS-style coarse placement, no runtime swaps.
//
// Models the software-managed alternative the paper argues against (and
// the "memory" operating point of the die-stacked-DRAM design space): the
// OS profiles page heat for one epoch, then pins the hottest macro pages
// on-package permanently. Placement is a one-time bulk copy charged as
// background traffic plus one OS table update per placed page; afterwards
// the mapping is fixed — a workload whose hot set drifts gets no help.
//
// During the profile epoch every access is served from the identity
// off-package home (placement is unknown until the OS decides).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "ras/ras.hh"
#include "schemes/scheme.hh"

namespace hmm::schemes {

class FlatHmaScheme final : public MemoryScheme {
 public:
  FlatHmaScheme(const ControllerConfig& cfg, DramSystem& on_package,
                DramSystem& off_package);

  [[nodiscard]] const char* name() const noexcept override {
    return "flat-HMA";
  }
  [[nodiscard]] SchemeDecision on_access(PhysAddr addr, AccessType type,
                                         Cycle now) override;
  [[nodiscard]] Route translate(PhysAddr addr) const override;
  void on_background_completion(const DramCompletion&,
                                Region) override {}
  [[nodiscard]] bool background_idle() const noexcept override {
    return true;  // the one-time bulk copy is fire-and-forget
  }
  void set_instant(bool on) override { instant_ = on; }
  void set_fault_injector(fault::FaultInjector* inj) override {
    injector_ = inj;
  }
  void set_ras(ras::RasEngine* ras) override { ras_ = ras; }
  [[nodiscard]] SchemeMetrics metrics() const override;
  void save(snap::Writer& w) const override;
  void restore(snap::Reader& r) override;
  /// Placement bijectivity and no page on a retired slot; runs in full on
  /// every audit, whatever the window.
  [[nodiscard]] std::string audit_check(
      const fault::AuditWindow& window) const override;

  [[nodiscard]] bool placed() const noexcept { return !profiling_; }

  /// Test hook: desynchronize the placement map so auditor tests can
  /// prove the audit path surfaces a corrupted mapping.
  void corrupt_placement_for_test();

 private:
  template <class Ar>
  void io(Ar& ar);
  void finalize_placement(Cycle now);
  /// Service one pending frame retirement: evict the page placed in a
  /// failing slot back to its home, or remap a failing off-package home
  /// onto a spare.
  void ras_service(Cycle now);

  struct Stats {
    std::uint64_t accesses = 0;
    std::uint64_t on_hits = 0;
    std::uint64_t placements = 0;
    std::uint64_t migrated_bytes = 0;
    std::uint64_t os_stall_cycles = 0;
  };

  Geometry geom_;  // no-snapshot(construction-time config)
  std::uint64_t interval_;  // no-snapshot(construction-time config)
  DramSystem& on_;
  DramSystem& off_;
  bool profiling_ = true;
  std::uint64_t seen_ = 0;  ///< profile-epoch access counter
  std::unordered_map<PageId, std::uint64_t> counts_;
  std::unordered_map<PageId, SlotId> place_;  ///< page -> on-package slot
  Cycle pending_os_stall_ = 0;
  Stats stats_;
  bool instant_ = false;
  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
  ras::RasEngine* ras_ = nullptr;  ///< not owned; may be null
};

}  // namespace hmm::schemes
