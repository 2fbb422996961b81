#include "schemes/memcache.hh"

#include <utility>

#include "common/params.hh"
#include "schemes/static_remap.hh"

namespace hmm::schemes {

namespace {
/// Memory-fraction size: (1 - cache_fraction) of the on-package bytes,
/// rounded to whole macro pages. A fraction outside [0, 1] (or NaN) is a
/// configuration error, not something to clamp.
[[nodiscard]] std::uint64_t memory_bytes(const Geometry& g,
                                         double cache_fraction) {
  HMM_CHECK(cache_fraction >= 0.0 && cache_fraction <= 1.0,
            "cache_fraction " + std::to_string(cache_fraction) +
                " is outside [0, 1]");
  const auto pages = static_cast<std::uint64_t>(
      (1.0 - cache_fraction) * static_cast<double>(g.slots()) + 0.5);
  return pages * g.page_bytes;
}
}  // namespace

MemCacheScheme::MemCacheScheme(std::string name, const ControllerConfig& cfg,
                               double cache_fraction,
                               DramSystem& on_package,
                               DramSystem& off_package)
    : name_(std::move(name)),
      geom_(cfg.geom),
      mem_bytes_(memory_bytes(cfg.geom, cache_fraction)),
      on_(on_package),
      off_(off_package),
      cache_(cfg.geom.on_package_bytes - mem_bytes_, params::kCacheLine,
             cfg.geom.total_bytes) {}

SchemeDecision MemCacheScheme::on_access(PhysAddr addr, AccessType type,
                                         Cycle now) {
  SchemeDecision d;
  ++stats_.accesses;
  if (ras_ != nullptr) ras_service(now);

  if (addr < mem_bytes_) {
    // Memory fraction: static identity placement, no tags, no extra cost
    // — unless the frame was retired, in which case its RAS spare
    // stand-in (off-package) serves it.
    d.route.mach = home_of(ras_, geom_, addr);
    d.route.region = geom_.region_of(d.route.mach);
    if (d.route.region == Region::OnPackage) ++stats_.mem_hits;
    return d;
  }

  if (injector_ != nullptr &&
      injector_->fires(fault::FaultSite::HotnessCorrupt,
                       geom_.page_of(addr))) {
    // A transient scrambles one tag entry. Dropping the set is the benign
    // outcome: at worst a spurious refill, never a wrong route.
    cache_.invalidate_set(
        injector_->payload_rng().bounded64(cache_.sets()));
  }

  const std::uint64_t line = cache_.line_bytes();
  if (ras_ != nullptr && cache_.sets() != 0 &&
      ras_->quarantined(cache_frame_of(cache_.set_of(addr)))) {
    // Failing cache frame: serve a still-present line in place, but
    // never install a new one — the miss bypasses to the backing home.
    if (cache_.present(addr)) {
      const LineCache::Lookup hit =
          cache_.access(addr, type == AccessType::Write);
      ++stats_.cache_hits;
      d.route.region = Region::OnPackage;
      d.route.mach = mem_bytes_ + hit.set * line + addr % line;
    } else {
      d.route.region = Region::OffPackage;
      d.route.mach = home_of(ras_, geom_, addr);
      d.extra_latency = params::kL4MissDetermination;
    }
    return d;
  }

  const LineCache::Lookup lk =
      cache_.access(addr, type == AccessType::Write);
  if (lk.hit) {
    // Tag-with-data: the probe IS the access — no extra latency.
    ++stats_.cache_hits;
    d.route.region = Region::OnPackage;
    d.route.mach = mem_bytes_ + lk.set * line + addr % line;
    return d;
  }
  // Miss: the on-package probe that discovered it costs one access, then
  // the demand is served from the off-package home.
  d.route.region = Region::OffPackage;
  d.route.mach = home_of(ras_, geom_, addr);
  if (cache_.sets() == 0) return d;  // cache_fraction 0: plain miss
  d.extra_latency = params::kL4MissDetermination;
  if (!instant_) {
    // Background fill of the TAD (and the dirty victim's writeback) steal
    // bandwidth exactly like migration chunks do.
    const auto bytes = static_cast<std::uint32_t>(line);
    on_.submit(mem_bytes_ + lk.set * line, bytes, AccessType::Write,
               Priority::Background, now + d.extra_latency);
    stats_.fill_bytes += line;
    if (lk.victim_valid && lk.victim_dirty) {
      off_.submit(home_of(ras_, geom_, lk.victim_addr), bytes,
                  AccessType::Write, Priority::Background,
                  now + d.extra_latency);
      stats_.writeback_bytes += line;
    }
  }
  return d;
}

void MemCacheScheme::ras_service(Cycle now) {
  if (!ras_->has_pending()) return;
  const PageId f = ras_->next_pending();
  const MachAddr base = geom_.machine_base(f);
  if (geom_.region_of(base) == Region::OnPackage && base >= mem_bytes_ &&
      cache_.sets() != 0) {
    // The frame's cache role: purge its sets; dirty victims stream back
    // to their backing homes.
    const std::uint64_t line = cache_.line_bytes();
    const std::uint64_t first = (base - mem_bytes_) / line;
    const std::uint64_t per = geom_.page_bytes / line;
    for (std::uint64_t s = first; s < first + per; ++s) {
      const LineCache::Purged p = cache_.purge_set(s);
      if (p.valid && p.dirty) {
        if (!instant_)
          off_.submit(home_of(ras_, geom_, p.addr),
                      static_cast<std::uint32_t>(line), AccessType::Write,
                      Priority::Background, now);
        stats_.writeback_bytes += line;
      }
    }
  }
  // The frame's home role: a memory-fraction frame is page f's static
  // home, and the cache's backing store identity-maps the rest of the
  // space, so every frame id is also some page's home. Remap onto a
  // spare.
  remap_onto_spare(*ras_, on_, off_, geom_, f, instant_, now);
}

Route MemCacheScheme::translate(PhysAddr addr) const {
  Route r;
  if (addr < mem_bytes_) {
    r.mach = home_of(ras_, geom_, addr);
    r.region = geom_.region_of(r.mach);
  } else if (cache_.present(addr)) {
    const std::uint64_t line = cache_.line_bytes();
    r.region = Region::OnPackage;
    r.mach = mem_bytes_ + cache_.set_of(addr) * line + addr % line;
  } else {
    r.region = Region::OffPackage;
    r.mach = home_of(ras_, geom_, addr);
  }
  return r;
}

SchemeMetrics MemCacheScheme::metrics() const {
  SchemeMetrics m;
  m.on_package_fraction =
      stats_.accesses == 0
          ? 0.0
          : static_cast<double>(stats_.mem_hits + stats_.cache_hits) /
                static_cast<double>(stats_.accesses);
  m.migrated_bytes = stats_.fill_bytes + stats_.writeback_bytes;
  return m;
}

std::string MemCacheScheme::audit_check(
    const fault::AuditWindow& window) const {
  if (mem_bytes_ + cache_.sets() * cache_.line_bytes() >
      geom_.on_package_bytes)
    return name_ + " partition exceeds on-package capacity";
  const std::string err = cache_.validate(window);
  if (!err.empty()) return name_ + " tag store: " + err;
  if (ras_ != nullptr && cache_.sets() != 0) {
    const std::uint64_t line = cache_.line_bytes();
    const std::uint64_t per = geom_.page_bytes / line;
    for (const PageId f : ras_->retired_frames()) {
      const MachAddr base = geom_.machine_base(f);
      if (geom_.region_of(base) != Region::OnPackage || base < mem_bytes_)
        continue;
      if (cache_.any_valid_in((base - mem_bytes_) / line, per))
        return name_ + " tag store: valid line in a retired cache frame";
    }
  }
  return {};
}

void MemCacheScheme::save(snap::Writer& w) const {
  const_cast<MemCacheScheme*>(this)->io(w);
}

void MemCacheScheme::restore(snap::Reader& r) { io(r); }

template <class Ar>
void MemCacheScheme::io(Ar& ar) {
  snap::part(ar, cache_);
  snap::section(ar, snap::tag('M', 'C', 'C', 'H'), [&] {
    snap::u64(ar, stats_.accesses);
    snap::u64(ar, stats_.mem_hits);
    snap::u64(ar, stats_.cache_hits);
    snap::u64(ar, stats_.fill_bytes);
    snap::u64(ar, stats_.writeback_bytes);
    snap::b(ar, instant_);
  });
}

}  // namespace hmm::schemes
