// Heterogeneity-aware controller tests, driving the swap scheme directly:
// routing/monitoring, the epoch trigger, the hottest-coldest rule,
// OS-assisted costs, and oracle mode.
#include <gtest/gtest.h>

#include "schemes/swap_scheme.hh"

namespace hmm {
namespace {

Geometry small_geom() {
  return Geometry{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
}
constexpr std::uint64_t kPage = 512 * KiB;

struct Rig {
  explicit Rig(ControllerConfig cfg,
               MigrationDesign design = MigrationDesign::NMinus1)
      : on(DramSystem::make(Region::OnPackage)),
        off(DramSystem::make(Region::OffPackage)),
        ctl(design, cfg, on, off) {}

  /// Drains both regions (through `now`, or completely) into the
  /// controller until nothing completes or it is idle.
  void pump(Drain how, Cycle now) {
    drain_regions(
        on, off, how, now, 100000,
        [&](const DramCompletion& c, Region r) {
          ctl.on_background_completion(c, r);
        },
        [&] { return ctl.background_idle(); });
  }

  /// Feed an access and pump engine traffic to completion (so swaps
  /// finish between epochs in these unit tests).
  schemes::SchemeDecision access(PhysAddr a, Cycle now) {
    auto d = ctl.on_access(a, AccessType::Read, now);
    pump(Drain::Completely, now);
    return d;
  }

  DramSystem on;
  DramSystem off;
  schemes::SwapScheme ctl;
};

ControllerConfig base_cfg() {
  ControllerConfig cfg;
  cfg.geom = small_geom();
  cfg.swap_interval = 100;
  return cfg;
}

TEST(Controller, CountsRegionsAndAddsTranslationLatency) {
  ControllerConfig cfg = base_cfg();
  cfg.migration_enabled = false;
  Rig rig(cfg);
  const auto on = rig.access(0, 0);
  EXPECT_EQ(on.route.region, Region::OnPackage);
  EXPECT_EQ(on.extra_latency, params::kTranslationTableLatency);
  const auto off = rig.access(20 * kPage, 10);
  EXPECT_EQ(off.route.region, Region::OffPackage);
  EXPECT_EQ(rig.ctl.stats().on_package_hits, 1u);
  EXPECT_EQ(rig.ctl.stats().off_package_hits, 1u);
}

TEST(Controller, HotOffPackagePageGetsMigrated) {
  Rig rig(base_cfg());
  // Hammer off-package page 20; untouched on-package slots are colder.
  Cycle now = 0;
  for (int i = 0; i < 400; ++i)
    rig.access(20 * kPage + (i % 64) * 64, now += 20);
  EXPECT_GT(rig.ctl.engine().stats().swaps_completed, 0u);
  EXPECT_EQ(rig.ctl.table().translate(20 * kPage).region, Region::OnPackage);
}

TEST(Controller, NoSwapWhenOnPackageHotter) {
  Rig rig(base_cfg());
  // Touch every on-package slot more often than the off-package page.
  Cycle now = 0;
  for (int i = 0; i < 1000; ++i) {
    for (PageId p = 0; p < 8; ++p) rig.access(p * kPage, now += 5);
    if (i % 10 == 0) rig.access(20 * kPage, now += 5);
  }
  EXPECT_EQ(rig.ctl.engine().stats().swaps_completed, 0u);
}

TEST(Controller, MigrationDisabledNeverSwaps) {
  ControllerConfig cfg = base_cfg();
  cfg.migration_enabled = false;
  Rig rig(cfg);
  Cycle now = 0;
  for (int i = 0; i < 2000; ++i) rig.access(20 * kPage, now += 10);
  EXPECT_EQ(rig.ctl.engine().stats().swaps_started, 0u);
  EXPECT_EQ(rig.ctl.table().translate(20 * kPage).region,
            Region::OffPackage);
}

TEST(Controller, OsAssistedChargesStalls) {
  ControllerConfig cfg = base_cfg();  // 512KB pages < 1MB: OS-assisted
  ASSERT_TRUE(cfg.is_os_assisted());
  Rig rig(cfg);
  Cycle now = 0;
  for (int i = 0; i < 400; ++i) rig.access(20 * kPage, now += 20);
  EXPECT_GT(rig.ctl.stats().os_stall_cycles, 0u);
}

TEST(Controller, PureHardwareHasNoOsStalls) {
  ControllerConfig cfg = base_cfg();
  cfg.geom = Geometry{64 * MiB, 16 * MiB, 1 * MiB, 64 * KiB};
  ASSERT_FALSE(cfg.is_os_assisted());  // 1MB pages: pure hardware
  Rig rig(cfg);
  Cycle now = 0;
  for (int i = 0; i < 400; ++i) rig.access(40 * MiB, now += 20);
  EXPECT_GT(rig.ctl.engine().stats().swaps_completed, 0u);
  EXPECT_EQ(rig.ctl.stats().os_stall_cycles, 0u);
}

TEST(Controller, GranularityDecidesImplementation) {
  ControllerConfig cfg;
  cfg.geom = Geometry{4 * GiB, 512 * MiB, 4 * MiB, 4 * KiB};
  EXPECT_FALSE(cfg.is_os_assisted());  // 4MB >= 1MB: pure hardware
  cfg.geom.page_bytes = 64 * KiB;
  EXPECT_TRUE(cfg.is_os_assisted());
}

TEST(Controller, OracleModeAlsoMigrates) {
  ControllerConfig cfg = base_cfg();
  cfg.oracle_hotness = true;
  Rig rig(cfg);
  Cycle now = 0;
  for (int i = 0; i < 400; ++i) rig.access(21 * kPage, now += 20);
  EXPECT_GT(rig.ctl.engine().stats().swaps_completed, 0u);
  EXPECT_EQ(rig.ctl.table().translate(21 * kPage).region, Region::OnPackage);
}

TEST(Controller, DesignNStallsDuringSwap) {
  Rig rig(base_cfg(), MigrationDesign::N);
  // Drive accesses WITHOUT pumping the engine, so a started swap stays
  // in flight and the next access must observe the stall flag.
  Cycle now = 0;
  bool saw_stall = false;
  for (int i = 0; i < 400; ++i) {
    const auto d = rig.ctl.on_access(20 * kPage, AccessType::Read, now += 20);
    if (d.stall_until_idle) {
      saw_stall = true;
      break;
    }
  }
  EXPECT_TRUE(saw_stall);
}

TEST(Controller, FillForwardsCounted) {
  // Live migration: accesses served by a partially filled slot increment
  // the fill_forwards statistic.
  Rig rig(base_cfg(), MigrationDesign::LiveMigration);
  Cycle now = 0;
  // Trigger a swap of page 20 (pumped to completion by access()).
  for (int i = 0; i < 150; ++i) rig.access(20 * kPage, now += 20);
  // Now hammer page 21 without pumping to idle: the fill progresses as
  // simulated time advances and early sub-blocks serve from the slot.
  for (int i = 0; i < 20000; ++i) {
    (void)rig.ctl.on_access(21 * kPage, AccessType::Read, now += 20);
    rig.pump(Drain::Through, now);
  }
  // 21 eventually migrates; during its fill some accesses were forwarded.
  EXPECT_GT(rig.ctl.stats().fill_forwards, 0u);
}

}  // namespace
}  // namespace hmm
