// Hotness tracker tests: clock pseudo-LRU victim selection and the
// multi-queue (MQ) hottest-page approximation.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace hmm
