// Access-recency/frequency trackers used by the migration controller
// (Section III-B):
//
//  * SlotClockTracker — clock-based pseudo-LRU over the N on-package slots
//    (as in real microprocessors [17]), plus a per-slot epoch access
//    counter so the hottest-coldest comparison has a frequency to compare.
//  * MultiQueueTracker — the multi-queue algorithm [18] approximating the
//    MRU off-package macro page with 3 levels x 10 entries of hardware.
//  * OracleTracker — perfect per-page epoch counts, used as an upper bound
//    in ablation experiments (not realizable in hardware at fine grain).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"

namespace hmm {

class SlotClockTracker {
 public:
  explicit SlotClockTracker(SlotId slots);

  void record_access(SlotId s) noexcept;

  /// Clock sweep: returns the coldest slot among those `migratable`
  /// (reference bits are cleared as the hand passes). Returns the slot and
  /// its epoch access count.
  struct Victim {
    SlotId slot = 0;
    std::uint64_t epoch_count = 0;
    bool found = false;
  };
  template <typename Pred>
  [[nodiscard]] Victim pick_victim(Pred&& migratable) noexcept {
    const SlotId n = static_cast<SlotId>(ref_.size());
    // Two full sweeps guarantee a victim if any slot is migratable.
    for (SlotId step = 0; step < 2 * n; ++step) {
      const SlotId s = hand_;
      hand_ = static_cast<SlotId>((hand_ + 1) % n);
      if (!migratable(s)) continue;
      if (ref_[s]) {
        ref_[s] = 0;
        continue;
      }
      return Victim{s, counts_[s], true};
    }
    return Victim{};
  }

  [[nodiscard]] std::uint64_t epoch_count(SlotId s) const noexcept {
    return counts_[s];
  }
  void reset_epoch() noexcept;

  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  template <class Ar>
  void io(Ar& ar);

  std::vector<std::uint8_t> ref_;
  std::vector<std::uint64_t> counts_;
  SlotId hand_ = 0;
};

/// A content-addressable memory of levels x entries, as the hardware
/// holds it: each level keeps its entries MRU first, and a page is found
/// by comparing it against every entry.
class MultiQueueTracker {
 public:
  MultiQueueTracker(unsigned levels, unsigned entries_per_level);

  /// Record an access to off-package page p at in-page sub-block `sb`
  /// (the sub-block seeds critical-data-first live migration).
  void record_access(PageId p, std::uint32_t sb) noexcept;

  struct Hottest {
    PageId page = kInvalidPage;
    std::uint64_t epoch_count = 0;
    std::uint32_t last_sub_block = 0;
    bool found = false;
  };
  /// The most frequently accessed tracked page this epoch; ties go to the
  /// lowest level, then to the most recently used entry.
  [[nodiscard]] Hottest hottest() const noexcept;

  /// Epoch boundary: age counts (halving) and drop dead entries.
  void reset_epoch() noexcept;

  /// Forget a page (it just migrated on-package).
  void erase(PageId p) noexcept;

  [[nodiscard]] std::size_t tracked() const noexcept;

  /// Structural self-check for the invariant auditor; returns an error
  /// description or empty string.
  [[nodiscard]] std::string validate() const;

  // --- fault-injection hook (tests only) -----------------------------------
  /// Forge the second tracked entry's page id into the first's, so one
  /// page is tracked twice — the next validate() must report it. No-op
  /// when fewer than two pages are tracked.
  void corrupt_entry_for_test() noexcept;

  // The level count and capacity are construction-time shapes; restore
  // refuses an entry validate() would reject.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  template <class Ar>
  void io(Ar& ar);

  struct Entry {
    PageId page = kInvalidPage;
    std::uint64_t count = 0;
    std::uint32_t last_sub_block = 0;
  };

  /// Level l's entries, MRU first: level(l)[0, used_[l]).
  [[nodiscard]] Entry* level(unsigned l) noexcept {
    return cam_.data() + std::size_t{l} * capacity_;
  }
  [[nodiscard]] const Entry* level(unsigned l) const noexcept {
    return cam_.data() + std::size_t{l} * capacity_;
  }
  /// Insert at MRU of `l`; a full level demotes its LRU entry to the MRU
  /// of the level below, and level 0 drops it.
  void insert(unsigned l, Entry e) noexcept;
  /// Remove entry i of level l, keeping the others' order.
  void remove(unsigned l, unsigned i) noexcept;

  unsigned levels_;
  unsigned capacity_;
  std::vector<Entry> cam_;      ///< levels_ x capacity_ entries
  std::vector<unsigned> used_;  ///< entries in use per level
};

class OracleTracker {
 public:
  void record_access(PageId p, std::uint32_t sb) noexcept {
    auto& e = counts_[p];
    e.first += 1;
    e.second = sb;
  }
  [[nodiscard]] MultiQueueTracker::Hottest hottest() const noexcept {
    MultiQueueTracker::Hottest best;
    for (const auto& [p, e] : counts_) {
      // Ties break toward the smallest page id so the choice never depends
      // on unordered_map iteration order (a restored map may hash into a
      // different bucket layout than the one that was checkpointed).
      if (!best.found || e.first > best.epoch_count ||
          (e.first == best.epoch_count && p < best.page)) {
        best = {p, e.first, e.second, true};
      }
    }
    return best;
  }
  void reset_epoch() noexcept { counts_.clear(); }
  void erase(PageId p) noexcept { counts_.erase(p); }

  void save(snap::Writer& w) const { const_cast<OracleTracker*>(this)->io(w); }
  void restore(snap::Reader& r) { io(r); }

 private:
  template <class Ar>
  void io(Ar& ar) {
    snap::section(ar, snap::tag('O', 'R', 'C', 'L'), [&] {
      snap::sorted_map(ar, counts_, [&](auto& p, auto& e) {
        snap::u64(ar, p);
        snap::u64(ar, e.first);
        snap::u32(ar, e.second);
      });
    });
  }

  std::unordered_map<PageId, std::pair<std::uint64_t, std::uint32_t>> counts_;
};

}  // namespace hmm
