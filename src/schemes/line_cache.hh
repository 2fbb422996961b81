// Direct-mapped tag store behind the cache-style scheme (MemCache and
// its pure-cache Alloy preset). Models the placement function of a
// tag-with-data (TAD) DRAM cache: one tag per line-sized set, no
// associativity, so a probe costs a single on-package access and there
// is no migration choreography.
//
// Only tags are modelled (the simulator carries no data); entries are
// packed as (tag << 2) | dirty << 1 | valid so the 8M sets of the paper
// geometry (512MB / 64B) stay a single flat uint32 array. Redundant
// valid-entry counts are maintained incrementally — one for the whole
// store and one per kBlockSets-set block — and cross-checked by
// validate(): every audit checks that the block counts sum to the total
// and recounts the tags of the blocks in its AuditWindow, so
// AuditWindow::kWindows audits recount the whole store.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
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
  LineCache(std::uint64_t capacity_bytes, std::uint64_t line_bytes)
      : line_bytes_(line_bytes),
        sets_(line_bytes > 0 ? capacity_bytes / line_bytes : 0),
        tags_(sets_, 0),
        block_valid_((sets_ + kBlockSets - 1) / kBlockSets, 0) {}

  [[nodiscard]] std::uint64_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::uint64_t line_bytes() const noexcept {
    return line_bytes_;
  }

  [[nodiscard]] std::uint64_t set_of(PhysAddr addr) const noexcept {
    return (addr / line_bytes_) % sets_;
  }

  /// Const probe (translate() path): present means an on-package hit.
  [[nodiscard]] bool present(PhysAddr addr) const noexcept {
    if (sets_ == 0) return false;
    const std::uint32_t e = tags_[set_of(addr)];
    return (e & 1u) != 0 && (e >> 2) == tag_of(addr);
  }

  /// Probe + fill: a miss installs the line (direct-mapped eviction) and
  /// reports the victim; `dirty` marks the line after a write hit/fill.
  [[nodiscard]] Lookup access(PhysAddr addr, bool dirty) {
    Lookup lk;
    if (sets_ == 0) return lk;
    const std::uint64_t tag = tag_of(addr);
    HMM_CHECK(tag < (1u << 30),
              "address space too large for the packed line-cache tag");
    lk.set = set_of(addr);
    std::uint32_t& e = tags_[lk.set];
    if ((e & 1u) != 0 && (e >> 2) == tag) {
      lk.hit = true;
      if (dirty) e |= 2u;
      return lk;
    }
    if ((e & 1u) != 0) {
      lk.victim_valid = true;
      lk.victim_dirty = (e & 2u) != 0;
      lk.victim_addr = ((static_cast<std::uint64_t>(e >> 2) * sets_) +
                        lk.set) *
                       line_bytes_;
    } else {
      ++valid_count_;
      ++block_valid_[lk.set / kBlockSets];
    }
    e = static_cast<std::uint32_t>(tag << 2) | (dirty ? 2u : 0u) | 1u;
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
    const std::uint32_t e = tags_[set];
    if ((e & 1u) != 0) {
      p.valid = true;
      p.dirty = (e & 2u) != 0;
      p.addr = ((static_cast<std::uint64_t>(e >> 2) * sets_) + set) *
               line_bytes_;
      --valid_count_;
      --block_valid_[set / kBlockSets];
      tags_[set] = 0;
    }
    return p;
  }

  /// True when any set in [first_set, first_set + count) holds a valid
  /// line (RAS audit: retired cache frames must stay empty).
  [[nodiscard]] bool any_valid_in(std::uint64_t first_set,
                                  std::uint64_t count) const noexcept {
    const std::uint64_t end = std::min(first_set + count, sets_);
    for (std::uint64_t s = first_set; s < end; ++s)
      if ((tags_[s] & 1u) != 0) return true;
    return false;
  }

  /// Fault payload: drop one set (a benign eviction-like transient).
  void invalidate_set(std::uint64_t set) {
    if (set >= sets_) return;
    if ((tags_[set] & 1u) != 0) {
      --valid_count_;
      --block_valid_[set / kBlockSets];
    }
    tags_[set] = 0;
  }

  /// Test hook: desynchronize the redundant counter so auditor tests can
  /// prove the audit path surfaces tag-store corruption.
  void corrupt_valid_count_for_test() noexcept { ++valid_count_; }

  /// Test hook: flip one set's valid bit behind every counter, a
  /// corruption only the recount of its block can see.
  void flip_valid_bit_for_test(std::uint64_t set) { tags_.at(set) ^= 1u; }

  /// Checks that the block counts sum to the valid-entry counter, then
  /// recounts the tags of `window`'s blocks (by default all of them)
  /// against their counts; returns an error description or empty string.
  [[nodiscard]] std::string validate(
      const fault::AuditWindow& window = fault::AuditWindow::all()) const {
    std::uint64_t sum = 0;
    for (const std::uint32_t n : block_valid_) sum += n;
    if (sum != valid_count_)
      return "valid-entry counter " + std::to_string(valid_count_) +
             " disagrees with the block counts' sum " + std::to_string(sum);
    const auto [first, end] = window.slice(block_valid_.size());
    for (std::uint64_t b = first; b < end; ++b) {
      const std::uint32_t n = recount(b);
      if (n != block_valid_[b])
        return "block " + std::to_string(b) + " valid count " +
               std::to_string(block_valid_[b]) +
               " disagrees with tag recount " + std::to_string(n);
    }
    return {};
  }

  // Sparse codec: only valid entries are written, in ascending set order,
  // so short runs over the 8M-set paper geometry keep checkpoints small.
  // The block counts are rebuilt on restore, never serialized.
  void save(snap::Writer& w) const {
    w.begin_section(snap::tag('L', 'N', 'C', 'H'));
    w.u64(valid_count_);
    for (std::uint64_t s = 0; s < sets_; ++s)
      if ((tags_[s] & 1u) != 0) {
        w.u64(s);
        w.u32(tags_[s]);
      }
    w.end_section();
  }
  void restore(snap::Reader& r) {
    r.begin_section(snap::tag('L', 'N', 'C', 'H'));
    std::uint64_t prev = 0;
    tags_.assign(sets_, 0);
    block_valid_.assign(block_valid_.size(), 0);
    valid_count_ = r.u64();
    for (std::uint64_t i = 0; i < valid_count_; ++i) {
      const std::uint64_t s = r.u64();
      if (s >= sets_)
        snap::snapshot_error("line-cache set index out of range");
      if (i > 0 && s <= prev)
        snap::snapshot_error("line-cache set indices not ascending");
      prev = s;
      tags_[s] = r.u32();
      if ((tags_[s] & 1u) == 0)
        snap::snapshot_error("line-cache entry without its valid bit");
      ++block_valid_[s / kBlockSets];
    }
    r.end_section();
  }

 private:
  [[nodiscard]] std::uint64_t tag_of(PhysAddr addr) const noexcept {
    return addr / line_bytes_ / sets_;
  }

  /// Valid entries among block `b`'s sets. A whole block is a
  /// fixed-length loop, which the compiler vectorizes.
  [[nodiscard]] std::uint32_t recount(std::uint64_t b) const noexcept {
    const std::uint64_t first = b * kBlockSets;
    const std::uint64_t len = std::min(kBlockSets, sets_ - first);
    const std::uint32_t* t = tags_.data() + first;
    std::uint32_t n = 0;
    if (len == kBlockSets) {
      for (std::uint64_t i = 0; i < kBlockSets; ++i) n += t[i] & 1u;
    } else {
      for (std::uint64_t i = 0; i < len; ++i) n += t[i] & 1u;
    }
    return n;
  }

  std::uint64_t line_bytes_ = 0;  // no-snapshot(construction-time config)
  std::uint64_t sets_ = 0;  // no-snapshot(derived from construction config)
  std::vector<std::uint32_t> tags_;
  std::uint64_t valid_count_ = 0;
  // no-snapshot(rebuilt from tags_ on restore)
  std::vector<std::uint32_t> block_valid_;  ///< valid entries per block
};

}  // namespace hmm::schemes
