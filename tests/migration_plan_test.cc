// Swap-plan tests: the engine's choreography must reproduce the paper's
// Fig 8 cases — including the fully worked 10-step example of Fig 8(d) —
// and keep the data-under-movement always addressable.
#include <gtest/gtest.h>

#include <vector>

#include "common/snapshot.hh"
#include "core/hotness.hh"
#include "core/migration.hh"

namespace hmm {
namespace {

Geometry small_geom() {
  return Geometry{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
}
constexpr std::uint64_t kPage = 512 * KiB;

struct Rig {
  Rig(MigrationDesign design = MigrationDesign::NMinus1)
      : table(small_geom(), table_mode(design)),
        on(DramSystem::make(Region::OnPackage)),
        off(DramSystem::make(Region::OffPackage)),
        engine(table, on, off, design) {}

  /// Drains both regions into the engine until it is idle or nothing
  /// completes.
  void run_to_idle() {
    Cycle now = 0;
    drain_regions(
        on, off, Drain::Completely, now, 100000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        [&] { return engine.idle(); });
  }

  TranslationTable table;
  DramSystem on;
  DramSystem off;
  MigrationEngine engine;
};

MachAddr omega_base() { return small_geom().machine_base(31); }

TEST(MigrationPlan, CaseA_HotOriginalSlow_ColdOriginalFast) {
  // Fig 8(a): MRU >= N (OS), LRU < N (OF). Empty slot is 7 initially.
  Rig rig;
  const auto plan = rig.engine.plan_swap(/*hot=*/20, 0, /*cold_slot=*/2);
  ASSERT_EQ(plan.size(), 3u);
  // Step 1: hot page's data -> empty slot 7.
  EXPECT_EQ(plan[0].src, 20 * kPage);
  EXPECT_EQ(plan[0].dst, 7 * kPage);
  // Step 2: ghost page 7's data leaves Ω for page 20's home.
  EXPECT_EQ(plan[1].src, omega_base());
  EXPECT_EQ(plan[1].dst, 20 * kPage);
  // Step 3: cold page 2 retires to Ω; slot 2 becomes the new empty slot.
  EXPECT_EQ(plan[2].src, 2 * kPage);
  EXPECT_EQ(plan[2].dst, omega_base());
}

TEST(MigrationPlan, CaseB_HotOriginalSlow_ColdMigratedFast) {
  // Fig 8(b): first migrate page 20 into slot 2 (case a), then the LRU is
  // the migrated page 20 itself while page 21 becomes hot: 4 copies.
  Rig rig;
  ASSERT_TRUE(rig.engine.start_swap(20, 0, 2, 0));
  rig.run_to_idle();
  ASSERT_TRUE(rig.engine.idle());
  ASSERT_TRUE(rig.table.validate().empty()) << rig.table.validate();
  ASSERT_EQ(rig.table.category(20), PageCategory::MigratedFast);

  const auto plan = rig.engine.plan_swap(/*hot=*/21, 0, /*cold_slot=*/7);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].src, 21 * kPage);          // hot into the empty slot 2
  EXPECT_EQ(plan[0].dst, 2 * kPage);
  EXPECT_EQ(plan[1].src, omega_base());        // ghost 2's data to 21's home
  EXPECT_EQ(plan[1].dst, 21 * kPage);
  EXPECT_EQ(plan[2].src, 20 * kPage);          // slot-7 page's data (at 20's
  EXPECT_EQ(plan[2].dst, omega_base());        // home) parks at Ω
  EXPECT_EQ(plan[3].src, 7 * kPage);           // cold page 20 goes home
  EXPECT_EQ(plan[3].dst, 20 * kPage);
}

TEST(MigrationPlan, CaseD_MatchesPaperTenStepExample) {
  // Fig 8(d): both MRU and LRU are migrated pages. Construct the paper's
  // exact preconditions with slots A=0, B=1, C=7 (empty/ghost), pages
  // D=20 (in slot A), E=21 (in slot B):
  Rig rig;
  rig.table.set_row(0, 20);  // A holds D
  rig.table.note_data_at(20, 0);
  rig.table.note_data_at(0, 20);
  rig.table.set_row(1, 21);  // B holds E
  rig.table.note_data_at(21, 1);
  rig.table.note_data_at(1, 21);
  ASSERT_TRUE(rig.table.validate().empty()) << rig.table.validate();

  // MRU = page B(=1, Migrated Slow), LRU = page D(=20, in slot A).
  const auto plan = rig.engine.plan_swap(/*hot=*/1, 0, /*cold_slot=*/0);
  ASSERT_EQ(plan.size(), 5u);

  // Paper step 1: data E (slot B) -> empty slot C.
  EXPECT_EQ(plan[0].src, 1 * kPage);
  EXPECT_EQ(plan[0].dst, 7 * kPage);
  // Steps 2 (link C->E + P bit) are plan[0].after.
  ASSERT_EQ(plan[0].after.size(), 3u);
  EXPECT_EQ(plan[0].after[0].kind, TableMutation::Kind::SetRow);
  EXPECT_EQ(plan[0].after[0].row, 7u);
  EXPECT_EQ(plan[0].after[0].page, 21u);
  EXPECT_EQ(plan[0].after[1].kind, TableMutation::Kind::SetPending);

  // Paper step 3: copy data B back to slot B (from E's home).
  EXPECT_EQ(plan[1].src, 21 * kPage);
  EXPECT_EQ(plan[1].dst, 1 * kPage);
  // Paper step 5: copy data C from Ω to slot E('s home).
  EXPECT_EQ(plan[2].src, omega_base());
  EXPECT_EQ(plan[2].dst, 21 * kPage);
  // Paper step 7: copy data A (at D's home) to Ω.
  EXPECT_EQ(plan[3].src, 20 * kPage);
  EXPECT_EQ(plan[3].dst, omega_base());
  // Paper step 9: copy data D (slot A) to its home.
  EXPECT_EQ(plan[4].src, 0 * kPage);
  EXPECT_EQ(plan[4].dst, 20 * kPage);
  // Paper step 10: row A becomes the new empty slot.
  bool empties_row_a = false;
  for (const auto& m : plan[4].after)
    if (m.kind == TableMutation::Kind::SetRowEmpty && m.row == 0)
      empties_row_a = true;
  EXPECT_TRUE(empties_row_a);
}

TEST(MigrationPlan, GhostHotRefillsOwnSlot) {
  // The hot page is the Ghost page itself: one copy, Ω -> its own slot.
  Rig rig;
  const auto plan = rig.engine.plan_swap(/*hot=*/7, 0, /*cold_slot=*/3);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].src, omega_base());
  EXPECT_EQ(plan[0].dst, 7 * kPage);
  EXPECT_EQ(plan[1].src, 3 * kPage);  // cold page retires to Ω
  EXPECT_EQ(plan[1].dst, omega_base());
}

TEST(MigrationPlan, DesignNExchangesDirectly) {
  Rig rig(MigrationDesign::N);
  const auto plan = rig.engine.plan_swap(/*hot=*/20, 0, /*cold_slot=*/2);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].src, 2 * kPage);
  EXPECT_EQ(plan[0].dst, 20 * kPage);
  EXPECT_EQ(plan[1].src, 20 * kPage);
  EXPECT_EQ(plan[1].dst, 2 * kPage);
  EXPECT_FALSE(plan[0].live_fill);
}

TEST(MigrationPlan, LiveFillOnlyInLiveDesign) {
  Rig nminus1(MigrationDesign::NMinus1);
  Rig live(MigrationDesign::LiveMigration);
  EXPECT_FALSE(nminus1.engine.plan_swap(20, 0, 2)[0].live_fill);
  EXPECT_TRUE(live.engine.plan_swap(20, 0, 2)[0].live_fill);
  // Critical-data-first seeds the start sub-block.
  EXPECT_EQ(live.engine.plan_swap(20, 5, 2)[0].start_sub_block, 5u);
}

TEST(MigrationPlan, CanSwapRejectsInvalidPairs) {
  Rig rig;
  EXPECT_FALSE(rig.engine.can_swap(3, 2));    // page 3 is on-package
  EXPECT_FALSE(rig.engine.can_swap(20, 7));   // slot 7 is the empty slot
  EXPECT_FALSE(rig.engine.can_swap(31, 2));   // Ω is reserved
  EXPECT_FALSE(rig.engine.can_swap(99, 2));   // out of range
  EXPECT_TRUE(rig.engine.can_swap(20, 2));
}

TEST(MigrationPlan, CanSwapRejectsVictimEqualsPartner) {
  // hot < N whose slot is occupied by partner e'; e' may not be the victim.
  Rig rig;
  rig.table.set_row(1, 21);
  rig.table.note_data_at(21, 1);
  rig.table.note_data_at(1, 21);
  EXPECT_FALSE(rig.engine.can_swap(/*hot=*/1, /*cold_slot=*/1));
  EXPECT_TRUE(rig.engine.can_swap(/*hot=*/1, /*cold_slot=*/4));
}

[[nodiscard]] std::vector<std::uint8_t> clock_bytes(
    const SlotClockTracker& clock) {
  snap::Writer w;
  clock.save(w);
  return w.take();
}

// The swap trigger skips the clock sweep when can_swap_hot() refuses the
// hot page. That sweep would change nothing: no slot passes can_swap(),
// so it clears no reference bit, and its 2N steps bring the hand back to
// where it started.
TEST(MigrationPlan, RefusedHotPageLeavesTheClockBytesUnchanged) {
  Rig rig;
  SlotClockTracker clock(small_geom().slots());
  const auto touch = [&] {
    for (const SlotId s : {0u, 2u, 3u, 5u}) clock.record_access(s);
  };
  const auto sweep = [&](PageId hot) {
    return clock.pick_victim(
        [&](SlotId s) { return rig.engine.can_swap(hot, s); });
  };
  touch();
  {
    SCOPED_TRACE("page 20, off-package, idle engine: a real sweep");
    ASSERT_TRUE(rig.engine.can_swap_hot(20));
    const std::vector<std::uint8_t> before = clock_bytes(clock);
    EXPECT_TRUE(sweep(20).found);
    EXPECT_NE(clock_bytes(clock), before);  // slot 0's bit cleared
  }
  touch();
  {
    SCOPED_TRACE("page 3 is already on-package");
    EXPECT_FALSE(rig.engine.can_swap_hot(3));
    const std::vector<std::uint8_t> before = clock_bytes(clock);
    EXPECT_FALSE(sweep(3).found);
    EXPECT_EQ(clock_bytes(clock), before);
  }
  {
    SCOPED_TRACE("the engine is busy");
    ASSERT_TRUE(rig.engine.start_swap(20, 0, 2, 0));
    EXPECT_FALSE(rig.engine.can_swap_hot(21));
    const std::vector<std::uint8_t> before = clock_bytes(clock);
    EXPECT_FALSE(sweep(21).found);
    EXPECT_EQ(clock_bytes(clock), before);
  }
}

}  // namespace
}  // namespace hmm
