// The RAS remap path of the statically placed schemes (flat-HMA, MemCache
// and its Alloy preset): with no relocation machinery, a failing frame's
// data moves once, by a bulk copy, onto a spare that stands in for it.
#pragma once

#include "ras/ras.hh"
#include "schemes/scheme.hh"

namespace hmm::schemes {

/// `addr` at its identity home: itself, or the same offset in the spare
/// standing in for its retired frame. `ras` may be null (RAS off).
[[nodiscard]] inline MachAddr home_of(const ras::RasEngine* ras,
                                      const Geometry& g,
                                      PhysAddr addr) noexcept {
  if (ras == nullptr) return addr;
  const PageId f = ras->resolve(g.page_of(addr));
  return f == g.page_of(addr) ? addr : g.machine_base(f) + g.offset_of(addr);
}

/// Copies machine page `from` (read on its own region) to off-package
/// machine page `to` as one page of background traffic.
inline void copy_page_off(DramSystem& on, DramSystem& off, const Geometry& g,
                          PageId from, PageId to, Cycle now) {
  const auto bytes = static_cast<std::uint32_t>(g.page_bytes);
  const MachAddr base = g.machine_base(from);
  DramSystem& src = g.region_of(base) == Region::OnPackage ? on : off;
  src.submit(base, bytes, AccessType::Read, Priority::Background, now);
  off.submit(g.machine_base(to), bytes, AccessType::Write,
             Priority::Background, now);
}

/// Retires pending frame `f` onto a spare and copies its data there (no
/// traffic when `instant`); a dry pool pins the frame in place instead.
inline void remap_onto_spare(ras::RasEngine& ras, DramSystem& on,
                             DramSystem& off, const Geometry& g, PageId f,
                             bool instant, Cycle now) {
  const std::optional<PageId> spare = ras.remap_frame(f, now);
  if (!spare.has_value())
    ras.pin_frame(f);
  else if (!instant)
    copy_page_off(on, off, g, f, *spare, now);
}

}  // namespace hmm::schemes
