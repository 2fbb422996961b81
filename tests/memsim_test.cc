// End-to-end MemSim tests: migration improves skewed workloads, the
// reference modes bracket the hybrid system, warm-up/reset semantics, the
// chunked replay loop against the unchunked sequence, and post-run
// invariants across the design/granularity matrix.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "runner/journal.hh"
#include "schemes/registry.hh"
#include "sim/memsim.hh"
#include "sim/replay.hh"
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

/// `n` measured references of pgbench, after `n / 2` of instant warm-up
/// unless `instant_warmup` is false.
RunResult replay(const MemSimConfig& cfg, std::uint64_t n,
                 std::uint64_t seed = 21, bool instant_warmup = true) {
  MemSim sim(cfg);
  auto w = make_pgbench(seed);
  const std::uint64_t warm = instant_warmup ? n / 2 : 0;
  hmm::replay(sim, *w, warm, warm + n);
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

// bench/throughput replays with its own copy of the replay sequence,
// unchunked. The shared loop must leave every scheme in the same state,
// and report the same results, with RAS, media faults and audits on or
// off; 3,001 measured references end mid-chunk.
TEST(MemSim, ReplayLoopMatchesTheUnchunkedSequence) {
  constexpr std::uint64_t kWarm = 3000;
  constexpr std::uint64_t kTotal = kWarm + 3001;
  static_assert((kTotal - kWarm) % kReplayChunk != 0);
  const auto state = [](const MemSim& sim) {
    snap::Writer w;
    sim.save(w);
    runner::CellResult cell;
    cell.result = sim.result();
    runner::encode_cell(w, cell);
    return w.take();
  };
  for (const std::string& name : schemes::scheme_names()) {
    for (const bool ras : {false, true}) {
      SCOPED_TRACE(name + (ras ? " with RAS" : ""));
      MemSimConfig cfg;
      cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
      cfg.scheme = name;
      cfg.controller.migration_enabled = true;
      cfg.controller.swap_interval = 1000;
      if (ras) {
        cfg.audit_interval = 1024;
        cfg.fault.seed = 7;
        cfg.fault.add(fault::FaultSite::MediaTransient, 1e-3)
            .add(fault::FaultSite::MediaStuckAt, 1e-3 / 4);
        cfg.ras.enabled = true;
        cfg.ras.scrub_interval = 5000;
      }
      MemSim unchunked(cfg);
      auto w = make_pgbench(21);
      unchunked.set_instant_migration(true);
      unchunked.run(*w, kWarm);
      unchunked.set_instant_migration(false);
      unchunked.reset_stats();
      unchunked.run(*w, kTotal - kWarm);
      unchunked.finish();

      MemSim looped(cfg);
      auto lw = make_pgbench(21);
      EXPECT_TRUE(replay(looped, *lw, kWarm, kTotal));
      EXPECT_EQ(looped.result().accesses, kTotal - kWarm);
      EXPECT_TRUE(state(looped) == state(unchunked))
          << "the loop's state or results differ from the unchunked run's";
    }
  }
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
  // Eight 4MB swaps, one per 1,000-access epoch.
  auto run_design = [&](MigrationDesign d) {
    MemSimConfig cfg = cfg_with(4 * MiB, d);
    cfg.controller.swap_interval = 1000;
    MemSim sim(cfg);
    auto w = make_pgbench(55);
    sim.run(*w, 8000);
    return sim.result();
  };
  const RunResult n = run_design(MigrationDesign::N);
  const RunResult live = run_design(MigrationDesign::LiveMigration);
  EXPECT_GT(n.avg_latency, live.avg_latency);
  // The halt is charged before an access reaches DRAM: most of N's
  // latency is the wait for the swap, not queueing in DRAM behind it.
  EXPECT_LT(n.on_queue_delay + n.off_queue_delay, n.avg_latency / 2);
}

}  // namespace
}  // namespace hmm
