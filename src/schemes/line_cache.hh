// Direct-mapped tag store behind the cache-style scheme (MemCache and
// its pure-cache Alloy preset). Models the placement function of a
// tag-with-data (TAD) DRAM cache: one tag per line-sized set, no
// associativity, so a probe costs a single on-package access and there
// is no migration choreography.
//
// Only tags are modelled (the simulator carries no data); entries are
// packed as (tag << 2) | dirty << 1 | valid. Like a TAD's tag field, an
// entry is only as wide as the cached address space needs: the largest
// tag is (space lines - 1) / sets, and the store keeps every entry in
// the narrowest of 8, 16 or 32 bits that holds it, chosen once at
// construction. The paper geometry's 8M sets (512MB / 64B over a 4GB
// space) need tags up to 7, so its store is one flat 8 MiB byte array.
// Each operation is one body over the element type, visited per call.
// Redundant valid-entry counts are maintained incrementally — one for
// the whole store and one per kBlockSets-set block — and cross-checked
// by validate(): every audit checks that the block counts sum to the
// total and recounts the tags of the blocks in its AuditWindow, so
// AuditWindow::kWindows audits recount the whole store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "fault/auditor.hh"
#include "fault/sim_error.hh"

namespace hmm::schemes {

class LineCache {
 public:
  /// Sets per block of the per-block valid counts.
  static constexpr std::uint64_t kBlockSets = 4096;

  /// Outcome of one access: on a miss, the victim (when valid) names the
  /// physical line that was evicted so the caller can write it back.
  struct Lookup {
    bool hit = false;
    std::uint64_t set = 0;
    bool victim_valid = false;
    bool victim_dirty = false;
    PhysAddr victim_addr = 0;
  };

  LineCache() = default;
  /// `capacity_bytes / line_bytes` sets caching the lines of the address
  /// space [0, space_bytes). A space whose largest tag needs more than
  /// 30 bits throws SimError.
  LineCache(std::uint64_t capacity_bytes, std::uint64_t line_bytes,
            std::uint64_t space_bytes)
      : line_bytes_(line_bytes),
        sets_(line_bytes > 0 ? capacity_bytes / line_bytes : 0),
        max_tag_(sets_ > 0 ? (space_bytes / line_bytes - 1) / sets_ : 0),
        tags_(make_store(sets_, max_tag_)),
        block_valid_((sets_ + kBlockSets - 1) / kBlockSets, 0) {}

  [[nodiscard]] std::uint64_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint64_t line_bytes() const noexcept {
    return line_bytes_;
  }
  /// Largest tag of a line in the address space.
  [[nodiscard]] std::uint64_t max_tag() const noexcept { return max_tag_; }
  /// Width of one packed entry: 8, 16 or 32 bits.
  [[nodiscard]] unsigned entry_bits() const {
    return std::visit(
        [](const auto& tags) {
          return 8 * static_cast<unsigned>(sizeof(tags[0]));
        },
        tags_);
  }

  [[nodiscard]] std::uint64_t set_of(PhysAddr addr) const noexcept {
    return (addr / line_bytes_) % sets_;
  }

  /// Const probe (translate() path): present means an on-package hit.
  [[nodiscard]] bool present(PhysAddr addr) const {
    if (sets_ == 0) return false;
    return std::visit(
        [&](const auto& tags) {
          const std::uint64_t e = tags[set_of(addr)];
          return (e & 1) != 0 && (e >> 2) == tag_of(addr);
        },
        tags_);
  }

  /// Probe + fill: a miss installs the line (direct-mapped eviction) and
  /// reports the victim; `dirty` marks the line after a write hit/fill.
  [[nodiscard]] Lookup access(PhysAddr addr, bool dirty) {
    Lookup lk;
    if (sets_ == 0) return lk;
    const std::uint64_t tag = tag_of(addr);
    HMM_CHECK(tag <= max_tag_, "address past the line cache's address space");
    lk.set = set_of(addr);
    std::visit(
        [&](auto& tags) {
          using Entry = typename std::decay_t<decltype(tags)>::value_type;
          const std::uint64_t e = tags[lk.set];
          if ((e & 1) != 0 && (e >> 2) == tag) {
            lk.hit = true;
            if (dirty) tags[lk.set] = static_cast<Entry>(e | 2);
            return;
          }
          if ((e & 1) != 0) {
            lk.victim_valid = true;
            lk.victim_dirty = (e & 2) != 0;
            lk.victim_addr = ((e >> 2) * sets_ + lk.set) * line_bytes_;
          } else {
            ++valid_count_;
            ++block_valid_[lk.set / kBlockSets];
          }
          tags[lk.set] = static_cast<Entry>(tag << 2 | (dirty ? 2 : 0) | 1);
        },
        tags_);
    return lk;
  }

  /// Outcome of purging one set: the evicted line, when one was valid.
  struct Purged {
    bool valid = false;
    bool dirty = false;
    PhysAddr addr = 0;
  };

  /// RAS retirement: evict the set's line (if any) and report it so a
  /// dirty victim can be written back to its backing home.
  [[nodiscard]] Purged purge_set(std::uint64_t set) {
    Purged p;
    if (set >= sets_) return p;
    std::visit(
        [&](auto& tags) {
          const std::uint64_t e = tags[set];
          if ((e & 1) == 0) return;
          p.valid = true;
          p.dirty = (e & 2) != 0;
          p.addr = ((e >> 2) * sets_ + set) * line_bytes_;
          --valid_count_;
          --block_valid_[set / kBlockSets];
          tags[set] = 0;
        },
        tags_);
    return p;
  }

  /// True when any set in [first_set, first_set + count) holds a valid
  /// line (RAS audit: retired cache frames must stay empty).
  [[nodiscard]] bool any_valid_in(std::uint64_t first_set,
                                  std::uint64_t count) const {
    const std::uint64_t end = std::min(first_set + count, sets_);
    return std::visit(
        [&](const auto& tags) {
          for (std::uint64_t s = first_set; s < end; ++s)
            if ((tags[s] & 1) != 0) return true;
          return false;
        },
        tags_);
  }

  /// Fault payload: drop one set (a benign eviction-like transient).
  void invalidate_set(std::uint64_t set) {
    if (set >= sets_) return;
    std::visit(
        [&](auto& tags) {
          if ((tags[set] & 1) != 0) {
            --valid_count_;
            --block_valid_[set / kBlockSets];
          }
          tags[set] = 0;
        },
        tags_);
  }

  /// Test hook: desynchronize the redundant counter so auditor tests can
  /// prove the audit path surfaces tag-store corruption.
  void corrupt_valid_count_for_test() noexcept { ++valid_count_; }

  /// Test hook: flip one set's valid bit behind every counter, a
  /// corruption only the recount of its block can see.
  void flip_valid_bit_for_test(std::uint64_t set) {
    std::visit(
        [&](auto& tags) {
          using Entry = typename std::decay_t<decltype(tags)>::value_type;
          tags.at(set) = static_cast<Entry>(tags.at(set) ^ 1);
        },
        tags_);
  }

  /// Checks that the block counts sum to the valid-entry counter, then
  /// recounts the tags of `window`'s blocks (by default all of them)
  /// against their counts; returns an error description or empty string.
  [[nodiscard]] std::string validate(
      const fault::AuditWindow& window = fault::AuditWindow::all()) const;

  // Sparse codec: only valid entries are written, in ascending set order,
  // so short runs over the 8M-set paper geometry keep checkpoints small.
  // An entry is written as a u32 whatever the store's width, and restore
  // refuses a tag past the address space, which also bounds it to the
  // width. The block counts are rebuilt on restore, never serialized.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  /// The packed entries, one vector at the width the address space
  /// needs.
  using Store = std::variant<std::vector<std::uint8_t>,
                             std::vector<std::uint16_t>,
                             std::vector<std::uint32_t>>;

  /// Largest tag an `Entry` holds beside its dirty and valid bits.
  template <class Entry>
  static constexpr std::uint64_t kMaxTagOf =
      std::numeric_limits<Entry>::max() >> 2;

  [[nodiscard]] static Store make_store(std::uint64_t sets,
                                        std::uint64_t max_tag);

  [[nodiscard]] std::uint64_t tag_of(PhysAddr addr) const noexcept {
    return addr / line_bytes_ / sets_;
  }

  /// Valid entries among block `b`'s sets.
  [[nodiscard]] std::uint32_t recount(std::uint64_t b) const;

  std::uint64_t line_bytes_ = 0;  // no-snapshot(construction-time config)
  std::uint64_t sets_ = 0;  // no-snapshot(derived from construction config)
  // no-snapshot(derived from construction config)
  std::uint64_t max_tag_ = 0;
  Store tags_;
  std::uint64_t valid_count_ = 0;
  // no-snapshot(rebuilt from tags_ on restore)
  std::vector<std::uint32_t> block_valid_;  ///< valid entries per block
};

}  // namespace hmm::schemes
