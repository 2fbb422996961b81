// MemCache-style hybrid: on-package DRAM partitioned into a memory
// fraction and a cache fraction ("Die-Stacked DRAM: Memory, Cache, or
// MemCache?" — the operating point between the two pure designs).
//
// The memory fraction statically maps the lowest physical macro pages
// on-package at identity addresses (OS-visible capacity, no tags, no
// copies). The remaining on-package bytes run as an Alloy-style
// direct-mapped line cache over the rest of the address space, with its
// sets offset past the memory fraction. `MemSimConfig::cache_fraction`
// is the runtime knob: 0.0 degenerates to pure static memory, 1.0 to a
// pure Alloy cache. The registry's "Alloy" scheme is this class built
// with 1.0 (Qureshi & Loh, MICRO'12 flavour).
//
// The cache is a tag-with-data (TAD) cache: one line per set, tag and
// data fetched in a single on-package access (no separate tag array, no
// associativity, no migration choreography). A hit is served
// on-package; a miss pays the miss-determination probe, is served from
// the off-package home, and streams a background fill into the set
// (plus a dirty-victim writeback).
//
// Adaptation notes: the backing store is the identity machine mapping of
// the whole physical space (the same convention Force::AllOffPackage
// uses), and the line size is the L3 line (64B) — the TAD unit the Alloy
// paper co-locates with its tag.
#pragma once

#include <string>

#include "ras/ras.hh"
#include "schemes/line_cache.hh"
#include "schemes/scheme.hh"

namespace hmm::schemes {

class MemCacheScheme final : public MemoryScheme {
 public:
  /// `name` is the registry name the scheme reports ("MemCache", or
  /// "Alloy" for the pure-cache preset). `cache_fraction` must lie in
  /// [0, 1]; anything else (NaN included) throws SimError.
  MemCacheScheme(std::string name, const ControllerConfig& cfg,
                 double cache_fraction, DramSystem& on_package,
                 DramSystem& off_package);

  [[nodiscard]] const char* name() const noexcept override {
    return name_.c_str();
  }
  [[nodiscard]] SchemeDecision on_access(PhysAddr addr, AccessType type,
                                         Cycle now) override;
  [[nodiscard]] Route translate(PhysAddr addr) const override;
  void on_background_completion(const DramCompletion&,
                                Region) override {}
  [[nodiscard]] bool background_idle() const noexcept override {
    return true;  // fills are fire-and-forget writes
  }
  void set_instant(bool on) override { instant_ = on; }
  void set_fault_injector(fault::FaultInjector* inj) override {
    injector_ = inj;
  }
  void set_ras(ras::RasEngine* ras) override { ras_ = ras; }
  [[nodiscard]] SchemeMetrics metrics() const override;
  void save(snap::Writer& w) const override;
  void restore(snap::Reader& r) override;
  /// Partition bound, tag-store counters (the recount rolls with
  /// `window`), and no valid line in a retired cache frame.
  [[nodiscard]] std::string audit_check(
      const fault::AuditWindow& window) const override;

  [[nodiscard]] std::uint64_t memory_fraction_bytes() const noexcept {
    return mem_bytes_;
  }

  /// Test hook: the tag store, so auditor tests can corrupt it.
  [[nodiscard]] LineCache& cache_for_test() noexcept { return cache_; }

 private:
  struct Stats {
    std::uint64_t accesses = 0;
    std::uint64_t mem_hits = 0;    ///< static memory-fraction accesses
    std::uint64_t cache_hits = 0;  ///< cache-fraction tag hits
    std::uint64_t fill_bytes = 0;
    std::uint64_t writeback_bytes = 0;
  };

  template <class Ar>
  void io(Ar& ar);
  /// Service one pending frame retirement: purge a failing cache frame,
  /// or remap a failing memory-fraction / backing frame onto a spare.
  void ras_service(Cycle now);
  /// Machine frame holding the cache set (sets sit past the memory
  /// fraction in the on-package space).
  [[nodiscard]] PageId cache_frame_of(std::uint64_t set) const noexcept {
    return (mem_bytes_ + set * cache_.line_bytes()) >> geom_.page_shift();
  }

  std::string name_;  // no-snapshot(construction-time config)
  Geometry geom_;  // no-snapshot(construction-time config)
  std::uint64_t mem_bytes_;  // no-snapshot(construction-time config)
  DramSystem& on_;
  DramSystem& off_;
  LineCache cache_;
  Stats stats_;
  bool instant_ = false;
  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
  ras::RasEngine* ras_ = nullptr;  ///< not owned; may be null
};

}  // namespace hmm::schemes
