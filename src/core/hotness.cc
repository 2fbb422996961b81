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
    : levels_(levels),
      capacity_(entries_per_level),
      cam_(std::size_t{levels} * entries_per_level),
      used_(levels, 0) {
  HMM_CHECK(levels > 0 && entries_per_level > 0,
            "multi-queue tracker needs at least one level and entry");
}

void MultiQueueTracker::insert(unsigned l, Entry e) noexcept {
  Entry* q = level(l);
  if (used_[l] < capacity_) {
    std::copy_backward(q, q + used_[l], q + used_[l] + 1);
    q[0] = e;
    ++used_[l];
    return;
  }
  const Entry demoted = q[capacity_ - 1];
  std::copy_backward(q, q + capacity_ - 1, q + capacity_);
  q[0] = e;
  if (l > 0) insert(l - 1, demoted);
}

void MultiQueueTracker::remove(unsigned l, unsigned i) noexcept {
  Entry* q = level(l);
  std::copy(q + i + 1, q + used_[l], q + i);
  --used_[l];
}

void MultiQueueTracker::record_access(PageId p, std::uint32_t sb) noexcept {
  for (unsigned l = 0; l < levels_; ++l) {
    Entry* q = level(l);
    for (unsigned i = 0; i < used_[l]; ++i) {
      if (q[i].page != p) continue;
      Entry e = q[i];
      ++e.count;
      e.last_sub_block = sb;
      // Classic MQ promotion rule: an entry moves up when its access
      // count reaches 2^(level+1); otherwise it refreshes to the MRU
      // position of its level.
      if (l + 1 >= levels_ || e.count < (1ull << (l + 1))) {
        std::copy_backward(q, q + i, q + i + 1);
        q[0] = e;
      } else {
        remove(l, i);
        insert(l + 1, e);
      }
      return;
    }
  }
  insert(0, Entry{p, 1, sb});
}

MultiQueueTracker::Hottest MultiQueueTracker::hottest() const noexcept {
  Hottest best;
  for (unsigned l = 0; l < levels_; ++l) {
    const Entry* q = level(l);
    for (unsigned i = 0; i < used_[l]; ++i) {
      if (!best.found || q[i].count > best.epoch_count)
        best = Hottest{q[i].page, q[i].count, q[i].last_sub_block, true};
    }
  }
  return best;
}

void MultiQueueTracker::reset_epoch() noexcept {
  for (unsigned l = 0; l < levels_; ++l) {
    Entry* q = level(l);
    unsigned kept = 0;
    for (unsigned i = 0; i < used_[l]; ++i) {
      q[i].count /= 2;
      if (q[i].count != 0) q[kept++] = q[i];
    }
    used_[l] = kept;
  }
}

void MultiQueueTracker::erase(PageId p) noexcept {
  for (unsigned l = 0; l < levels_; ++l) {
    const Entry* q = level(l);
    for (unsigned i = 0; i < used_[l]; ++i) {
      if (q[i].page == p) {
        remove(l, i);
        return;
      }
    }
  }
}

std::size_t MultiQueueTracker::tracked() const noexcept {
  std::size_t n = 0;
  for (const unsigned u : used_) n += u;
  return n;
}

void MultiQueueTracker::corrupt_entry_for_test() noexcept {
  Entry* first = nullptr;
  for (unsigned l = 0; l < levels_; ++l) {
    for (unsigned i = 0; i < used_[l]; ++i) {
      Entry& e = level(l)[i];
      if (first == nullptr) {
        first = &e;
      } else {
        e.page = first->page;
        return;
      }
    }
  }
}

std::string MultiQueueTracker::validate() const {
  std::vector<PageId> pages;
  for (unsigned l = 0; l < levels_; ++l) {
    for (unsigned i = 0; i < used_[l]; ++i) {
      const Entry& e = level(l)[i];
      if (e.page == kInvalidPage) return "invalid page id tracked";
      if (e.count == 0) return "tracked entry with zero count";
      pages.push_back(e.page);
    }
  }
  // A CAM match must be unique.
  std::sort(pages.begin(), pages.end());
  if (std::adjacent_find(pages.begin(), pages.end()) != pages.end())
    return "page tracked twice";
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
  const std::string err = validate();
  if (!err.empty()) snap::snapshot_error("multi-queue tracker: " + err);
}

template <class Ar>
void MultiQueueTracker::io(Ar& ar) {
  snap::section(ar, snap::tag('M', 'Q', 'T', 'R'), [&] {
    snap::expect<std::uint32_t>(ar, levels_, "multi-queue level count");
    snap::expect<std::uint32_t>(ar, capacity_, "multi-queue level capacity");
    for (unsigned l = 0; l < levels_; ++l) {
      std::uint64_t n = used_[l];
      snap::u64(ar, n);
      if (n > capacity_)
        snap::snapshot_error("multi-queue tracker: queue level above "
                             "capacity");
      used_[l] = static_cast<unsigned>(n);
      for (unsigned i = 0; i < used_[l]; ++i) {
        Entry& e = cam_[std::size_t{l} * capacity_ + i];
        snap::u64(ar, e.page);
        snap::u64(ar, e.count);
        snap::u32(ar, e.last_sub_block);
      }
    }
  });
}

}  // namespace hmm
