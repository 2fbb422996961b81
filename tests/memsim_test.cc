// End-to-end MemSim tests: migration improves skewed workloads, the
// reference modes bracket the hybrid system, warm-up/reset semantics, and
// post-run invariants across the design/granularity matrix.
#include <gtest/gtest.h>

#include "sim/memsim.hh"
#include "trace/workloads.hh"

namespace hmm {
namespace {

// Scaled-down Section IV geometry for fast tests.
MemSimConfig cfg_with(std::uint64_t page, MigrationDesign design,
                      bool migration = true,
                      MemSimConfig::Force force = MemSimConfig::Force::None) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, page, 4 * KiB};
  cfg.scheme = to_string(design);
  cfg.controller.migration_enabled = migration;
  cfg.controller.swap_interval = 1000;
  cfg.force = force;
  return cfg;
}

RunResult replay(const MemSimConfig& cfg, std::uint64_t n,
                 std::uint64_t seed = 21, bool instant_warmup = true) {
  MemSim sim(cfg);
  auto w = make_pgbench(seed);
  if (instant_warmup) {
    sim.set_instant_migration(true);
    sim.run(*w, n / 2);
    sim.set_instant_migration(false);
    sim.reset_stats();
  }
  sim.run(*w, n);
  sim.finish();
  return sim.result();
}

TEST(MemSim, ReferencesBracketTheHybrid) {
  const std::uint64_t n = 60000;
  const double all_on =
      replay(cfg_with(1 * MiB, MigrationDesign::LiveMigration, false,
                      MemSimConfig::Force::AllOnPackage),
             n, 21, false)
          .avg_latency;
  const double all_off =
      replay(cfg_with(1 * MiB, MigrationDesign::LiveMigration, false,
                      MemSimConfig::Force::AllOffPackage),
             n, 21, false)
          .avg_latency;
  const double hybrid =
      replay(cfg_with(1 * MiB, MigrationDesign::LiveMigration, false), n, 21,
             false)
          .avg_latency;
  EXPECT_LT(all_on, hybrid);
  EXPECT_LT(hybrid, all_off);
}

TEST(MemSim, MigrationBeatsStaticOnSkewedWorkload) {
  const std::uint64_t n = 120000;
  const double stat =
      replay(cfg_with(256 * KiB, MigrationDesign::LiveMigration, false), n)
          .avg_latency;
  const double mig =
      replay(cfg_with(256 * KiB, MigrationDesign::LiveMigration, true), n)
          .avg_latency;
  EXPECT_LT(mig, stat);
}

TEST(MemSim, MigrationRaisesOnPackageShare) {
  const std::uint64_t n = 120000;
  const RunResult stat =
      replay(cfg_with(256 * KiB, MigrationDesign::LiveMigration, false), n);
  const RunResult mig =
      replay(cfg_with(256 * KiB, MigrationDesign::LiveMigration, true), n);
  EXPECT_GT(mig.on_package_fraction, stat.on_package_fraction + 0.1);
  EXPECT_GT(mig.swaps, 0u);
  EXPECT_GT(mig.migrated_bytes, 0u);
}

TEST(MemSim, EffectivenessMetric) {
  EXPECT_DOUBLE_EQ(RunResult::effectiveness(250.0, 250.0), 0.0);
  EXPECT_NEAR(RunResult::effectiveness(250.0, 50.0), 1.0, 1e-9);
  EXPECT_NEAR(RunResult::effectiveness(250.0, 150.0), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(RunResult::effectiveness(40.0, 30.0), 0.0);  // degenerate
}

TEST(MemSim, PowerAccountsMigrationTraffic) {
  const std::uint64_t n = 120000;
  const RunResult stat =
      replay(cfg_with(256 * KiB, MigrationDesign::LiveMigration, false), n,
             21, false);
  const RunResult mig =
      replay(cfg_with(64 * KiB, MigrationDesign::LiveMigration, true), n, 21,
             false);
  EXPECT_GT(mig.normalized_power(), stat.normalized_power());
  EXPECT_GT(stat.normalized_power(), 0.0);
  EXPECT_LT(stat.normalized_power(), 1.1);  // no migration: cheaper or equal
}

TEST(MemSim, ResetStatsKeepsArchitecturalState) {
  MemSim sim(cfg_with(1 * MiB, MigrationDesign::LiveMigration));
  auto w = make_pgbench(9);
  sim.run(*w, 50000);
  sim.finish();
  const std::uint64_t swaps_before = sim.result().swaps;
  sim.reset_stats();
  const RunResult r = sim.result();
  EXPECT_EQ(r.accesses, 0u);
  EXPECT_EQ(r.demand_bytes_on + r.demand_bytes_off, 0u);
  // Migration/table state persists (swap counter is engine state).
  EXPECT_EQ(r.swaps, swaps_before);
}

struct MatrixParam {
  MigrationDesign design;
  std::uint64_t page;
};

class MemSimMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(MemSimMatrix, RunsCleanAndKeepsInvariants) {
  const MatrixParam p = GetParam();
  MemSim sim(cfg_with(p.page, p.design));
  auto w = make_specjbb(33);
  sim.run(*w, 40000);
  sim.finish();
  const RunResult r = sim.result();
  EXPECT_EQ(r.accesses, 40000u);
  EXPECT_GT(r.avg_latency, 50.0);
  // Design N halts execution for entire page copies; at 4MB granularity a
  // single swap dwarfs the scaled trace (the paper's Fig 11 point).
  const double bound = p.design == MigrationDesign::N ? 2e7 : 5e4;
  EXPECT_LT(r.avg_latency, bound);
  EXPECT_GE(r.on_package_fraction, 0.0);
  EXPECT_LE(r.on_package_fraction, 1.0);
  EXPECT_GT(r.energy_pj, 0.0);
  if (p.design != MigrationDesign::N) {
    const TranslationTable& t = *sim.scheme().mutable_table();
    EXPECT_TRUE(t.validate().empty()) << t.validate();
  }
}

// gtest names each case after the raw bytes of its parameter, padding
// included. Parameters in static storage have zeroed padding, so the test
// names are the same on every run; stack temporaries (::testing::Values)
// would leak address-dependent garbage into them.
const MatrixParam kMatrix[] = {
    {MigrationDesign::N, 4 * MiB},
    {MigrationDesign::N, 64 * KiB},
    {MigrationDesign::NMinus1, 4 * MiB},
    {MigrationDesign::NMinus1, 64 * KiB},
    {MigrationDesign::NMinus1, 4 * KiB},
    {MigrationDesign::LiveMigration, 4 * MiB},
    {MigrationDesign::LiveMigration, 256 * KiB},
    {MigrationDesign::LiveMigration, 4 * KiB}};

INSTANTIATE_TEST_SUITE_P(DesignsAndGranularities, MemSimMatrix,
                         ::testing::ValuesIn(kMatrix));

TEST(MemSim, DesignNStallsCostMoreAtCoarseGrainHighFrequency) {
  // The paper's Fig 11 observation: blocking (N) swaps of 4MB pages at
  // high swap frequency are costlier than the overlapped N-1/Live.
  auto run_design = [&](MigrationDesign d) {
    MemSimConfig cfg = cfg_with(4 * MiB, d);
    cfg.controller.swap_interval = 1000;
    MemSim sim(cfg);
    auto w = make_pgbench(55);
    sim.run(*w, 80000);
    sim.finish();
    return sim.result().avg_latency;
  };
  const double n_lat = run_design(MigrationDesign::N);
  const double live_lat = run_design(MigrationDesign::LiveMigration);
  EXPECT_GT(n_lat, live_lat);
}

}  // namespace
}  // namespace hmm
