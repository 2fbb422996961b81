#include "core/hotness.hh"

#include <algorithm>

#include "fault/sim_error.hh"

namespace hmm {

SlotClockTracker::SlotClockTracker(SlotId slots)
    : ref_(slots, 0), counts_(slots, 0) {
  HMM_CHECK(slots > 0, "clock tracker needs at least one slot");
}

void SlotClockTracker::record_access(SlotId s) noexcept {
  ref_[s] = 1;
  ++counts_[s];
}

void SlotClockTracker::reset_epoch() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
}

MultiQueueTracker::MultiQueueTracker(unsigned levels,
                                     unsigned entries_per_level)
    : levels_(levels), capacity_(entries_per_level), queues_(levels) {
  HMM_CHECK(levels > 0 && entries_per_level > 0,
            "multi-queue tracker needs at least one level and entry");
  for (auto& q : queues_) q.reserve(entries_per_level);
}

void MultiQueueTracker::reindex(unsigned level) noexcept {
  for (std::size_t i = 0; i < queues_[level].size(); ++i)
    index_[queues_[level][i].page] = Pos{level, i};
}

void MultiQueueTracker::insert(unsigned level, Entry e) noexcept {
  auto& q = queues_[level];
  q.insert(q.begin(), e);
  if (q.size() > capacity_) {
    Entry demoted = q.back();
    q.pop_back();
    if (level > 0) {
      reindex(level);
      insert(level - 1, demoted);
      return;
    }
    index_.erase(demoted.page);
  }
  reindex(level);
}

void MultiQueueTracker::promote_if_due(unsigned level,
                                       std::size_t idx) noexcept {
  // Classic MQ promotion rule: an entry moves up when its access count
  // reaches 2^(level+1).
  Entry e = queues_[level][idx];
  if (level + 1 >= levels_ || e.count < (1ull << (level + 1))) {
    // Just refresh to the MRU position of its level.
    auto& q = queues_[level];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
    q.insert(q.begin(), e);
    reindex(level);
    return;
  }
  auto& q = queues_[level];
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
  reindex(level);
  insert(level + 1, e);
}

void MultiQueueTracker::record_access(PageId p, std::uint32_t sb) {
  const auto it = index_.find(p);
  if (it != index_.end()) {
    const Pos pos = it->second;
    Entry& e = queues_[pos.level][pos.idx];
    HMM_CHECK(e.page == p, "multi-queue index out of sync with its queue");
    ++e.count;
    e.last_sub_block = sb;
    promote_if_due(pos.level, pos.idx);
    return;
  }
  insert(0, Entry{p, 1, sb});
}

MultiQueueTracker::Hottest MultiQueueTracker::hottest() const noexcept {
  Hottest best;
  for (const auto& q : queues_) {
    for (const Entry& e : q) {
      if (!best.found || e.count > best.epoch_count) {
        best = Hottest{e.page, e.count, e.last_sub_block, true};
      }
    }
  }
  return best;
}

void MultiQueueTracker::reset_epoch() noexcept {
  for (unsigned l = 0; l < levels_; ++l) {
    auto& q = queues_[l];
    for (auto it = q.begin(); it != q.end();) {
      it->count /= 2;
      if (it->count == 0) {
        index_.erase(it->page);
        it = q.erase(it);
      } else {
        ++it;
      }
    }
    reindex(l);
  }
}

void MultiQueueTracker::erase(PageId p) noexcept {
  const auto it = index_.find(p);
  if (it == index_.end()) return;
  const Pos pos = it->second;
  auto& q = queues_[pos.level];
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(pos.idx));
  index_.erase(it);
  reindex(pos.level);
}

void MultiQueueTracker::corrupt_entry_for_test() noexcept {
  for (auto& q : queues_) {
    if (q.empty()) continue;
    q.front().page += 1'000'000;  // index_ still holds the old id
    return;
  }
}

std::string MultiQueueTracker::validate() const {
  std::size_t entries = 0;
  for (unsigned l = 0; l < levels_; ++l) {
    const auto& q = queues_[l];
    if (q.size() > capacity_) return "queue level above capacity";
    entries += q.size();
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Entry& e = q[i];
      if (e.page == kInvalidPage) return "invalid page id tracked";
      if (e.count == 0) return "tracked entry with zero count";
      const auto it = index_.find(e.page);
      if (it == index_.end()) return "queued page missing from index";
      if (it->second.level != l || it->second.idx != i)
        return "index position out of sync with its queue";
    }
  }
  if (entries != index_.size()) return "index size disagrees with queues";
  return {};
}

void SlotClockTracker::save(snap::Writer& w) const {
  const_cast<SlotClockTracker*>(this)->io(w);
}

void SlotClockTracker::restore(snap::Reader& r) { io(r); }

template <class Ar>
void SlotClockTracker::io(Ar& ar) {
  snap::section(ar, snap::tag('C', 'L', 'C', 'K'), [&] {
    snap::expect<std::uint64_t>(ar, ref_.size(), "clock tracker slot count");
    for (std::uint8_t& bit : ref_) snap::u8(ar, bit);
    for (std::uint64_t& c : counts_) snap::u64(ar, c);
    snap::u64(ar, hand_);
  });
}

void MultiQueueTracker::save(snap::Writer& w) const {
  const_cast<MultiQueueTracker*>(this)->io(w);
}

void MultiQueueTracker::restore(snap::Reader& r) {
  io(r);
  index_.clear();
  for (unsigned l = 0; l < levels_; ++l) reindex(l);
}

template <class Ar>
void MultiQueueTracker::io(Ar& ar) {
  snap::section(ar, snap::tag('M', 'Q', 'T', 'R'), [&] {
    snap::expect<std::uint32_t>(ar, levels_, "multi-queue level count");
    snap::expect<std::uint32_t>(ar, capacity_, "multi-queue level capacity");
    for (auto& q : queues_)
      snap::seq(ar, q, [&](auto& e) {
        snap::u64(ar, e.page);
        snap::u64(ar, e.count);
        snap::u32(ar, e.last_sub_block);
      });
  });
}

}  // namespace hmm
