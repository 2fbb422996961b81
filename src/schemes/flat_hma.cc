#include "schemes/flat_hma.hh"

#include <algorithm>
#include <vector>

#include "common/params.hh"
#include "schemes/static_remap.hh"

namespace hmm::schemes {

FlatHmaScheme::FlatHmaScheme(const ControllerConfig& cfg,
                             DramSystem& on_package,
                             DramSystem& off_package)
    : geom_(cfg.geom),
      interval_(cfg.swap_interval),
      on_(on_package),
      off_(off_package) {}

SchemeDecision FlatHmaScheme::on_access(PhysAddr addr, AccessType /*type*/,
                                        Cycle now) {
  SchemeDecision d;
  ++stats_.accesses;
  if (ras_ != nullptr) ras_service(now);
  PageId p = geom_.page_of(addr);

  if (profiling_) {
    PageId tracked = p;
    if (injector_ != nullptr &&
        injector_->fires(fault::FaultSite::HotnessCorrupt, p)) {
      // A corrupted profile counter credits the access to the wrong page:
      // at worst a suboptimal placement, never an invalid one.
      tracked = static_cast<PageId>(
          injector_->payload_rng().bounded64(geom_.total_pages()));
    }
    ++counts_[tracked];
    d.route.region = Region::OffPackage;
    d.route.mach = home_of(ras_, geom_, addr);
    if (++seen_ >= interval_) finalize_placement(now);
    // The OS bookkeeping stalls the CPU; charge it to the access that
    // crossed the epoch boundary (same convention as the controller).
    d.extra_latency += pending_os_stall_;
    pending_os_stall_ = 0;
    return d;
  }

  d.route = translate(addr);
  if (d.route.region == Region::OnPackage) ++stats_.on_hits;
  return d;
}

void FlatHmaScheme::finalize_placement(Cycle now) {
  // Deterministic hottest-first order: count descending, page id ascending
  // (unordered_map iteration order must never leak into placement).
  std::vector<std::pair<PageId, std::uint64_t>> heat(counts_.begin(),
                                                     counts_.end());
  std::sort(heat.begin(), heat.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  const SlotId slots = geom_.slots();
  SlotId cursor = 0;
  SlotId next = 0;  ///< pages actually placed
  std::vector<std::pair<PageId, SlotId>> placed;  ///< hottest-first
  for (const auto& [page, count] : heat) {
    // A quarantined slot frame must not receive a placement (slot ids are
    // on-package machine frames 1:1).
    while (cursor < slots && ras_ != nullptr && ras_->quarantined(cursor))
      ++cursor;
    if (cursor >= slots || count == 0) break;
    place_.emplace(page, cursor);
    placed.emplace_back(page, cursor);
    ++cursor;
    ++next;
  }
  stats_.placements = next;
  if (!instant_ && next > 0) {
    // One bulk background copy per placed page (read the off-package home,
    // write the slot) plus one OS table update each — paid once, ever.
    const auto bytes = static_cast<std::uint32_t>(geom_.page_bytes);
    // `placed`, not `place_`: the copy stream must replay in the same
    // hottest-first order on every run, not in hash-bucket order.
    for (const auto& [page, slot] : placed) {
      off_.submit(geom_.machine_base(page), bytes, AccessType::Read,
                  Priority::Background, now);
      on_.submit(static_cast<MachAddr>(slot) * geom_.page_bytes, bytes,
                 AccessType::Write, Priority::Background, now);
    }
    stats_.migrated_bytes =
        static_cast<std::uint64_t>(next) * geom_.page_bytes;
    const Cycle stall = static_cast<Cycle>(next) * params::kOsUpdateOverhead;
    stats_.os_stall_cycles += stall;
    pending_os_stall_ += stall;
  }
  profiling_ = false;
  counts_.clear();
}

Route FlatHmaScheme::translate(PhysAddr addr) const {
  Route r;
  const PageId p = geom_.page_of(addr);
  if (const auto it = place_.find(p); it != place_.end()) {
    r.region = Region::OnPackage;
    r.mach = static_cast<MachAddr>(it->second) * geom_.page_bytes +
             geom_.offset_of(addr);
  } else {
    // Identity off-package home (the Force::AllOffPackage convention),
    // or its RAS spare stand-in once the home is retired.
    r.region = Region::OffPackage;
    r.mach = home_of(ras_, geom_, addr);
  }
  return r;
}

void FlatHmaScheme::ras_service(Cycle now) {
  if (!ras_->has_pending()) return;
  const PageId f = ras_->next_pending();
  if (f < geom_.slots()) {
    // The frame's slot role: evict whatever page was pinned in slot f
    // back to its off-package home (the pinned copy is authoritative).
    PageId evictee = kInvalidPage;
    // analyze: allow(determinism): tie-broken min-scan
    for (const auto& [page, slot] : place_)
      if (slot == f && (evictee == kInvalidPage || page < evictee))
        evictee = page;
    if (evictee != kInvalidPage) {
      PageId target = ras_->resolve(evictee);
      if (ras_->retired(target)) {
        // The evictee's home was stale-retired while the page lived
        // on-package; it needs a fresh spare to land on. A dry pool pins
        // the slot instead — the page keeps being served in place.
        const std::optional<PageId> re = ras_->assign_spare_for(target);
        if (!re.has_value()) {
          ras_->pin_frame(f);
          return;
        }
        target = *re;
      }
      place_.erase(evictee);
      if (!instant_) copy_page_off(on_, off_, geom_, f, target, now);
      stats_.migrated_bytes += geom_.page_bytes;
    }
  }
  // The frame's home role: the backing store identity-maps the whole
  // physical space, so frame f is also page f's home.
  if (place_.count(f) != 0) {
    // Page f lives on-package; its home frame holds only a stale copy,
    // so the frame is data-free and retires without a copy.
    ras_->complete_retirement(f, now);
    return;
  }
  // The home holds page f's data: permanent remap onto a spare.
  remap_onto_spare(*ras_, on_, off_, geom_, f, instant_, now);
}

SchemeMetrics FlatHmaScheme::metrics() const {
  SchemeMetrics m;
  m.on_package_fraction =
      stats_.accesses == 0 ? 0.0
                           : static_cast<double>(stats_.on_hits) /
                                 static_cast<double>(stats_.accesses);
  m.swaps = stats_.placements;
  m.migrated_bytes = stats_.migrated_bytes;
  m.os_stall_cycles = stats_.os_stall_cycles;
  return m;
}

std::string FlatHmaScheme::audit_check(const fault::AuditWindow&) const {
  // Placement bijectivity: every slot is used at most once and every
  // mapped page/slot is in range.
  std::vector<bool> used(geom_.slots(), false);
  // analyze: allow(determinism): order-independent audit verdict
  for (const auto& [page, slot] : place_) {
    if (page >= geom_.total_pages())
      return "flat-HMA placement: page id out of range";
    if (slot >= geom_.slots())
      return "flat-HMA placement: slot out of range";
    if (used[slot]) return "flat-HMA placement: slot mapped twice";
    used[slot] = true;
  }
  if (place_.size() > geom_.slots())
    return "flat-HMA placement: more pages than slots";
  if (ras_ != nullptr) {
    // analyze: allow(determinism): order-independent audit verdict
    for (const auto& [page, slot] : place_)
      if (ras_->retired(slot))
        return "flat-HMA placement: page mapped to a retired slot";
  }
  return {};
}

void FlatHmaScheme::corrupt_placement_for_test() {
  // Map a second page onto slot 0 (or invent the first mapping twice).
  place_[geom_.total_pages() - 2] = 0;
  place_[geom_.total_pages() - 3] = 0;
}

void FlatHmaScheme::save(snap::Writer& w) const {
  const_cast<FlatHmaScheme*>(this)->io(w);
}

void FlatHmaScheme::restore(snap::Reader& r) { io(r); }

template <class Ar>
void FlatHmaScheme::io(Ar& ar) {
  const auto pair = [&](auto& k, auto& v) {
    snap::u64(ar, k);
    snap::u64(ar, v);
  };
  snap::section(ar, snap::tag('F', 'H', 'M', 'A'), [&] {
    snap::b(ar, profiling_);
    snap::u64(ar, seen_);
    snap::sorted_map(ar, counts_, pair);
    snap::sorted_map(ar, place_, pair);
    snap::u64(ar, pending_os_stall_);
    snap::u64(ar, stats_.accesses);
    snap::u64(ar, stats_.on_hits);
    snap::u64(ar, stats_.placements);
    snap::u64(ar, stats_.migrated_bytes);
    snap::u64(ar, stats_.os_stall_cycles);
    snap::b(ar, instant_);
  });
}

}  // namespace hmm::schemes
