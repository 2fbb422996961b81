// Migration-engine execution tests: swaps run to completion through the
// real DRAM models, the table stays valid at every step boundary, live
// migration serves filled sub-blocks early, and every page is addressable
// at every instant of a swap (the paper's "execution never halts" claim).
#include <gtest/gtest.h>

#include "core/migration.hh"

namespace hmm {
namespace {

Geometry small_geom() {
  return Geometry{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
}
constexpr std::uint64_t kPage = 512 * KiB;

struct Rig {
  explicit Rig(MigrationDesign design)
      : table(small_geom(), table_mode(design)),
        on(DramSystem::make(Region::OnPackage)),
        off(DramSystem::make(Region::OffPackage)),
        engine(table, on, off, design) {}

  /// Drains both regions into the engine until nothing completes or
  /// `stop()` holds; `stop()` also sees the state after every batch.
  template <class Stop>
  void pump(Stop&& stop) {
    Cycle now = 0;
    drain_regions(
        on, off, Drain::Completely, now, 100000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        stop);
  }

  /// Pump all DRAM work to completion, checking invariants per batch.
  void run_to_idle(bool validate_each = true) {
    std::string err;
    pump([&] {
      if (validate_each && table.mode() == TableMode::HardwareNMinus1)
        err = table.validate();
      return !err.empty() || engine.idle();
    });
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(engine.idle());
  }

  TranslationTable table;
  DramSystem on;
  DramSystem off;
  MigrationEngine engine;
};

class EngineDesignTest
    : public ::testing::TestWithParam<MigrationDesign> {};

TEST_P(EngineDesignTest, SwapMovesHotInAndColdOut) {
  Rig rig(GetParam());
  ASSERT_TRUE(rig.engine.start_swap(/*hot=*/20, 0, /*cold_slot=*/2, 0));
  EXPECT_FALSE(rig.engine.idle());
  rig.run_to_idle();

  EXPECT_EQ(rig.table.translate(20 * kPage).region, Region::OnPackage);
  EXPECT_EQ(rig.table.translate(2 * kPage).region, Region::OffPackage);
  EXPECT_EQ(rig.engine.stats().swaps_completed, 1u);
  EXPECT_GT(rig.engine.stats().bytes_copied, 0u);
}

TEST_P(EngineDesignTest, EveryPageAlwaysAddressable) {
  // At every completion batch during a swap, every page must translate to
  // a machine address inside the memory space (never into limbo).
  Rig rig(GetParam());
  ASSERT_TRUE(rig.engine.start_swap(20, 3, 2, 0));
  const Geometry g = small_geom();
  rig.pump([&] {
    for (PageId p = 0; p + 1 < g.total_pages(); ++p) {
      const Route r = rig.table.translate(p * kPage + 7);
      EXPECT_LT(r.mach, g.total_bytes);
      EXPECT_EQ(g.offset_of(r.mach), 7u);
    }
    return rig.engine.idle();
  });
}

TEST_P(EngineDesignTest, BackToBackSwapsKeepTableValid) {
  Rig rig(GetParam());
  // A chain of swaps that exercises OS/MS/MF/Ghost combinations.
  const PageId hots[] = {20, 21, 22, 2, 20};
  const SlotId colds[] = {2, 4, 5, 6, 1};
  for (int i = 0; i < 5; ++i) {
    if (!rig.engine.can_swap(hots[i], colds[i])) continue;
    ASSERT_TRUE(rig.engine.start_swap(hots[i], 0, colds[i], 0)) << i;
    rig.run_to_idle();
  }
  if (rig.table.mode() == TableMode::HardwareNMinus1) {
    EXPECT_TRUE(rig.table.validate().empty()) << rig.table.validate();
  }
  EXPECT_GE(rig.engine.stats().swaps_completed, 3u);
}

TEST_P(EngineDesignTest, RejectsSecondSwapWhileBusy) {
  Rig rig(GetParam());
  ASSERT_TRUE(rig.engine.start_swap(20, 0, 2, 0));
  if (GetParam() != MigrationDesign::N) {
    EXPECT_FALSE(rig.engine.idle());
    EXPECT_FALSE(rig.engine.start_swap(21, 0, 3, 0));
  }
  rig.run_to_idle();
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, EngineDesignTest,
                         ::testing::Values(MigrationDesign::N,
                                           MigrationDesign::NMinus1,
                                           MigrationDesign::LiveMigration));

TEST(MigrationEngine, LiveFillServesSubBlocksEarly) {
  Rig rig(MigrationDesign::LiveMigration);
  ASSERT_TRUE(rig.engine.start_swap(/*hot=*/20, /*hot_sub=*/0,
                                    /*cold_slot=*/2, 0));
  // Advance a few chunk completions, then check partial routing.
  bool saw_partial = false;
  rig.pump([&] {
    if (rig.table.fill_active() && rig.table.sub_block_ready(0) &&
        !rig.table.sub_block_ready(7)) {
      const Route ready = rig.table.translate(20 * kPage + 1);
      const Route pending = rig.table.translate(20 * kPage + 7 * 64 * KiB);
      EXPECT_EQ(ready.region, Region::OnPackage);
      EXPECT_TRUE(ready.served_by_fill_slot);
      EXPECT_EQ(pending.region, Region::OffPackage);
      saw_partial = true;
    }
    return rig.engine.idle();
  });
  EXPECT_TRUE(saw_partial);
}

TEST(MigrationEngine, CriticalFirstStartsAtHotSubBlock) {
  Rig rig(MigrationDesign::LiveMigration);
  ASSERT_TRUE(rig.engine.start_swap(20, /*hot_sub=*/5, 2, 0));
  // Pump until the first fill chunk lands: sub-block 5 must be ready
  // before sub-block 0.
  rig.pump([&] { return rig.table.sub_block_ready(5); });
  ASSERT_TRUE(rig.table.fill_active());
  EXPECT_TRUE(rig.table.sub_block_ready(5));
  EXPECT_FALSE(rig.table.sub_block_ready(4));  // filled last (wraps)
  rig.run_to_idle(false);
}

TEST(MigrationEngine, InstantModeAppliesEndStateWithoutTraffic) {
  Rig rig(MigrationDesign::LiveMigration);
  rig.engine.set_instant(true);
  ASSERT_TRUE(rig.engine.start_swap(20, 0, 2, 0));
  EXPECT_TRUE(rig.engine.idle());
  EXPECT_EQ(rig.engine.stats().swaps_completed, 1u);
  EXPECT_EQ(rig.on.background_bytes() + rig.off.background_bytes(), 0u);
  EXPECT_EQ(rig.table.translate(20 * kPage).region, Region::OnPackage);
  EXPECT_TRUE(rig.table.validate().empty()) << rig.table.validate();
}

TEST(MigrationEngine, CopiedBytesMatchPlanVolume) {
  Rig rig(MigrationDesign::NMinus1);
  const auto plan = rig.engine.plan_swap(20, 0, 2);
  std::uint64_t expected = 0;
  for (const auto& st : plan) expected += st.bytes;
  ASSERT_TRUE(rig.engine.start_swap(20, 0, 2, 0));
  rig.run_to_idle();
  EXPECT_EQ(rig.engine.stats().bytes_copied, expected);
}

}  // namespace
}  // namespace hmm
