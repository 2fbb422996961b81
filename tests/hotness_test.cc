// Hotness tracker tests: clock pseudo-LRU victim selection and the
// multi-queue (MQ) hottest-page approximation.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "core/hotness.hh"

namespace hmm {
namespace {

TEST(SlotClock, VictimIsUntouchedSlot) {
  SlotClockTracker t(4);
  t.record_access(0);
  t.record_access(1);
  t.record_access(3);
  const auto v = t.pick_victim([](SlotId) { return true; });
  ASSERT_TRUE(v.found);
  EXPECT_EQ(v.slot, 2u);
  EXPECT_EQ(v.epoch_count, 0u);
}

TEST(SlotClock, SecondSweepFindsVictimWhenAllReferenced) {
  SlotClockTracker t(4);
  for (SlotId s = 0; s < 4; ++s) t.record_access(s);
  const auto v = t.pick_victim([](SlotId) { return true; });
  EXPECT_TRUE(v.found);  // hand cleared reference bits and came around
}

TEST(SlotClock, RespectsMigratablePredicate) {
  SlotClockTracker t(4);
  const auto v = t.pick_victim([](SlotId s) { return s == 3; });
  ASSERT_TRUE(v.found);
  EXPECT_EQ(v.slot, 3u);
  const auto none = t.pick_victim([](SlotId) { return false; });
  EXPECT_FALSE(none.found);
}

TEST(SlotClock, EpochCountsAccumulateAndReset) {
  SlotClockTracker t(2);
  t.record_access(1);
  t.record_access(1);
  EXPECT_EQ(t.epoch_count(1), 2u);
  t.reset_epoch();
  EXPECT_EQ(t.epoch_count(1), 0u);
}

TEST(MultiQueue, HottestIsMostAccessed) {
  MultiQueueTracker mq(3, 10);
  for (int i = 0; i < 20; ++i) mq.record_access(100, 5);
  for (int i = 0; i < 3; ++i) mq.record_access(200, 0);
  const auto h = mq.hottest();
  ASSERT_TRUE(h.found);
  EXPECT_EQ(h.page, 100u);
  EXPECT_EQ(h.epoch_count, 20u);
  EXPECT_EQ(h.last_sub_block, 5u);
}

TEST(MultiQueue, PromotionMovesHotPagesUpLevels) {
  MultiQueueTracker mq(3, 2);  // tiny levels force eviction pressure
  // Page 1 is accessed often enough to be promoted beyond level 0, so a
  // burst of one-touch pages cannot push it out.
  for (int i = 0; i < 16; ++i) mq.record_access(1, 0);
  for (PageId p = 50; p < 60; ++p) mq.record_access(p, 0);
  const auto h = mq.hottest();
  ASSERT_TRUE(h.found);
  EXPECT_EQ(h.page, 1u);
}

TEST(MultiQueue, CapacityIsBounded) {
  MultiQueueTracker mq(3, 10);
  for (PageId p = 0; p < 1000; ++p) mq.record_access(p, 0);
  EXPECT_LE(mq.tracked(), 30u);
}

TEST(MultiQueue, EraseForgetsPage) {
  MultiQueueTracker mq(3, 10);
  mq.record_access(42, 0);
  mq.record_access(42, 0);
  mq.erase(42);
  const auto h = mq.hottest();
  EXPECT_FALSE(h.found);
  mq.erase(42);  // idempotent
}

TEST(MultiQueue, EpochResetHalvesCountsAndDropsDead) {
  MultiQueueTracker mq(3, 10);
  for (int i = 0; i < 4; ++i) mq.record_access(7, 0);
  mq.record_access(8, 0);  // count 1 -> dies on reset
  mq.reset_epoch();
  const auto h = mq.hottest();
  ASSERT_TRUE(h.found);
  EXPECT_EQ(h.page, 7u);
  EXPECT_EQ(h.epoch_count, 2u);
  EXPECT_EQ(mq.tracked(), 1u);
}

TEST(Oracle, TracksExactCounts) {
  OracleTracker o;
  for (int i = 0; i < 5; ++i) o.record_access(9, 3);
  o.record_access(4, 1);
  const auto h = o.hottest();
  ASSERT_TRUE(h.found);
  EXPECT_EQ(h.page, 9u);
  EXPECT_EQ(h.epoch_count, 5u);
  o.reset_epoch();
  EXPECT_FALSE(o.hottest().found);
}

// The multi-queue tracker as it was when a hash index located each page:
// the reference the CAM is held to, operation for operation. It writes
// the same 'MQTR' bytes, so comparing the two saves compares every
// level's entries in order.
class IndexedTracker {
 public:
  IndexedTracker(unsigned levels, unsigned capacity)
      : levels_(levels), capacity_(capacity), queues_(levels) {}

  void record_access(PageId p, std::uint32_t sb) {
    const auto it = index_.find(p);
    if (it == index_.end()) {
      insert(0, Entry{p, 1, sb});
      return;
    }
    const Pos pos = it->second;
    Entry& e = queues_[pos.level][pos.idx];
    ++e.count;
    e.last_sub_block = sb;
    promote_if_due(pos.level, pos.idx);
  }

  [[nodiscard]] MultiQueueTracker::Hottest hottest() const {
    MultiQueueTracker::Hottest best;
    for (const auto& q : queues_)
      for (const Entry& e : q)
        if (!best.found || e.count > best.epoch_count)
          best = {e.page, e.count, e.last_sub_block, true};
    return best;
  }

  void reset_epoch() {
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

  void erase(PageId p) {
    const auto it = index_.find(p);
    if (it == index_.end()) return;
    const Pos pos = it->second;
    auto& q = queues_[pos.level];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pos.idx));
    index_.erase(it);
    reindex(pos.level);
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snap::Writer w;
    w.begin_section(snap::tag('M', 'Q', 'T', 'R'));
    w.u32(levels_);
    w.u32(capacity_);
    for (const auto& q : queues_) {
      w.u64(q.size());
      for (const Entry& e : q) {
        w.u64(e.page);
        w.u64(e.count);
        w.u32(e.last_sub_block);
      }
    }
    w.end_section();
    return w.take();
  }

 private:
  struct Entry {
    PageId page;
    std::uint64_t count;
    std::uint32_t last_sub_block;
  };
  struct Pos {
    unsigned level;
    std::size_t idx;
  };

  void reindex(unsigned level) {
    for (std::size_t i = 0; i < queues_[level].size(); ++i)
      index_[queues_[level][i].page] = Pos{level, i};
  }

  void insert(unsigned level, Entry e) {
    auto& q = queues_[level];
    q.insert(q.begin(), e);
    if (q.size() > capacity_) {
      const Entry demoted = q.back();
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

  void promote_if_due(unsigned level, std::size_t idx) {
    const Entry e = queues_[level][idx];
    auto& q = queues_[level];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
    if (level + 1 >= levels_ || e.count < (1ull << (level + 1))) {
      q.insert(q.begin(), e);
      reindex(level);
      return;
    }
    reindex(level);
    insert(level + 1, e);
  }

  unsigned levels_;
  unsigned capacity_;
  std::vector<std::vector<Entry>> queues_;
  std::unordered_map<PageId, Pos> index_;
};

[[nodiscard]] std::vector<std::uint8_t> bytes_of(const MultiQueueTracker& t) {
  snap::Writer w;
  t.save(w);
  return w.take();
}

TEST(MultiQueue, CamMatchesTheIndexedTrackerCallForCall) {
  for (const unsigned capacity : {1u, 2u, 10u}) {
    SCOPED_TRACE(capacity);
    MultiQueueTracker cam(3, capacity);
    IndexedTracker ref(3, capacity);
    Pcg32 rng(2024 + capacity);
    for (int call = 0; call < 20'000; ++call) {
      const std::uint32_t op = rng.bounded(100);
      // A skewed page draw: a few hot pages, a long cold tail.
      const PageId p = rng.chance(0.7) ? rng.bounded(8) : rng.bounded(200);
      if (op < 2) {
        cam.reset_epoch();
        ref.reset_epoch();
      } else if (op < 6) {
        cam.erase(p);
        ref.erase(p);
      } else {
        const std::uint32_t sb = rng.bounded(16);
        cam.record_access(p, sb);
        ref.record_access(p, sb);
      }
      const auto a = cam.hottest();
      const auto b = ref.hottest();
      ASSERT_EQ(a.found, b.found) << "call " << call;
      ASSERT_EQ(a.page, b.page) << "call " << call;
      ASSERT_EQ(a.epoch_count, b.epoch_count) << "call " << call;
      ASSERT_EQ(a.last_sub_block, b.last_sub_block) << "call " << call;
      ASSERT_EQ(bytes_of(cam), ref.bytes()) << "call " << call;
      ASSERT_EQ(cam.validate(), "") << "call " << call;
    }
  }
}

TEST(MultiQueue, ValidateReportsAPageTrackedTwice) {
  MultiQueueTracker mq(3, 10);
  mq.record_access(1, 0);
  EXPECT_EQ(mq.validate(), "");
  mq.corrupt_entry_for_test();  // one page tracked: nothing to duplicate
  EXPECT_EQ(mq.validate(), "");
  mq.record_access(2, 0);
  mq.corrupt_entry_for_test();
  EXPECT_EQ(mq.validate(), "page tracked twice");
}

}  // namespace
}  // namespace hmm
