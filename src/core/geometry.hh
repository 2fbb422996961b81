// Heterogeneous memory-space geometry: how the physical address space is
// split into macro pages and how machine addresses map onto the two regions.
//
// Machine layout (Section II-A): machine addresses [0, on_package) are the
// on-package DRAM; [on_package, total) are the off-package DIMMs. The
// "home" machine address of macro page p is p * page_bytes (identity), so
// the initial translation table maps the lowest addresses on-package.
// The highest macro page is the reserved page Ω used as the off-package
// ghost slot of the N-1 designs (Section III-A: "reserved by the hardware
// driver after booting the OS"), so the OS never allocates it.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/types.hh"
#include "common/units.hh"

namespace hmm {

struct Geometry {
  std::uint64_t total_bytes = 4 * GiB;
  std::uint64_t on_package_bytes = 512 * MiB;
  std::uint64_t page_bytes = 4 * MiB;      ///< macro-page (migration) size
  std::uint64_t sub_block_bytes = 4 * KiB; ///< live-migration fill unit

  [[nodiscard]] unsigned page_shift() const noexcept {
    return log2_exact(page_bytes);
  }
  [[nodiscard]] PageId total_pages() const noexcept {
    return total_bytes / page_bytes;
  }
  /// Number of on-package slots, N (= translation-table rows).
  [[nodiscard]] SlotId slots() const noexcept {
    return static_cast<SlotId>(on_package_bytes / page_bytes);
  }
  /// The reserved ghost page Ω (an off-package machine location).
  [[nodiscard]] PageId omega() const noexcept { return total_pages() - 1; }

  [[nodiscard]] PageId page_of(PhysAddr a) const noexcept {
    return a >> page_shift();
  }
  [[nodiscard]] std::uint64_t offset_of(PhysAddr a) const noexcept {
    return a & (page_bytes - 1);
  }
  [[nodiscard]] MachAddr machine_base(PageId machine_page) const noexcept {
    return machine_page << page_shift();
  }
  /// Sub-block index of an in-page offset.
  [[nodiscard]] std::uint32_t sub_block_of(
      std::uint64_t offset) const noexcept {
    return static_cast<std::uint32_t>(offset >> log2_exact(sub_block_bytes));
  }
  [[nodiscard]] std::uint32_t sub_blocks_per_page() const noexcept {
    return static_cast<std::uint32_t>(page_bytes / sub_block_bytes);
  }
  [[nodiscard]] Region region_of(MachAddr a) const noexcept {
    return a < on_package_bytes ? Region::OnPackage : Region::OffPackage;
  }

  [[nodiscard]] bool valid() const noexcept {
    return is_pow2(total_bytes) && is_pow2(on_package_bytes) &&
           is_pow2(page_bytes) && is_pow2(sub_block_bytes) &&
           sub_block_bytes <= page_bytes && page_bytes <= on_package_bytes &&
           on_package_bytes < total_bytes;
  }
};

}  // namespace hmm
