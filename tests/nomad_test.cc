// Nomad (transactional migration, DESIGN.md §10) tests: Shadow-mode
// translation table semantics (begin/dirty/commit/abort, the wandering
// hole, validate() catching corruption), end-to-end MemSim runs of the
// nomad scheme (migration happens, determinism, parallel-sweep
// bit-identity), and fault injection resolving to clean transactional
// aborts — degraded mode at worst, never a wedge.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "core/translation_table.hh"
#include "describe_result.hh"
#include "fault/fault_injector.hh"
#include "runner/runner.hh"
#include "sim/memsim.hh"
#include "sim/replay.hh"
#include "trace/workloads.hh"

namespace hmm {
namespace {

// 8 machine pages, 4 on-package slots, 4 sub-blocks per page; Ω = 7 is
// the boot hole.
[[nodiscard]] Geometry small_geom() {
  return Geometry{32 * KiB, 16 * KiB, 4 * KiB, 1 * KiB};
}

[[nodiscard]] std::string table_bytes(const TranslationTable& t) {
  snap::Writer w;
  t.save(w);
  return std::string(w.buffer().begin(), w.buffer().end());
}

TEST(NomadTable, BootsWithHoleAtOmegaAndIdentityRouting) {
  const Geometry g = small_geom();
  TranslationTable t(g, TableMode::Shadow);
  EXPECT_EQ(t.hole(), g.omega());
  EXPECT_FALSE(t.shadow_active());
  EXPECT_EQ(t.validate(), "");
  for (PageId p = 0; p + 1 < g.total_pages(); ++p) {
    EXPECT_EQ(t.location_of(p), p * g.page_bytes);
    EXPECT_EQ(t.page_at(p), p);
  }
  EXPECT_EQ(t.page_at(t.hole()), kInvalidPage);  // the hole holds no page
}

TEST(NomadTable, CommitRepointsThePageAndMovesTheHole) {
  const Geometry g = small_geom();
  TranslationTable t(g, TableMode::Shadow);
  const PageId page = 2;
  const PageId old_hole = t.hole();

  t.begin_shadow(page, t.hole());
  EXPECT_TRUE(t.shadow_active());
  EXPECT_EQ(t.shadow_page(), page);
  EXPECT_EQ(t.shadow_dst(), old_hole);
  // Routing is untouched until commit: the old home keeps serving.
  EXPECT_EQ(t.location_of(page), page * g.page_bytes);
  EXPECT_EQ(t.validate(), "");

  const auto nsb = static_cast<std::uint32_t>(g.sub_blocks_per_page());
  for (std::uint32_t i = 0; i < nsb; ++i) t.shadow_mark_filled(i);
  t.commit_shadow();

  EXPECT_FALSE(t.shadow_active());
  EXPECT_EQ(t.location_of(page), old_hole * g.page_bytes);
  EXPECT_EQ(t.page_at(old_hole), page);
  EXPECT_EQ(t.hole(), page);  // the old home is the new hole
  EXPECT_EQ(t.page_at(t.hole()), kInvalidPage);
  EXPECT_EQ(t.validate(), "");
}

TEST(NomadTable, AbortRestoresTheExactPreBeginState) {
  const Geometry g = small_geom();
  TranslationTable t(g, TableMode::Shadow);
  const std::string before = table_bytes(t);

  t.begin_shadow(5, t.hole());
  t.shadow_mark_filled(0);
  t.shadow_mark_filled(1);
  t.shadow_mark_dirty(1);
  EXPECT_NE(table_bytes(t), before);  // mid-txn state is real
  t.abort_shadow();

  EXPECT_FALSE(t.shadow_active());
  EXPECT_EQ(t.validate(), "");
  EXPECT_EQ(table_bytes(t), before);  // bit-identical rollback
}

TEST(NomadTable, DirtyAndFilledBitmapsTrackSubBlocks) {
  const Geometry g = small_geom();
  TranslationTable t(g, TableMode::Shadow);
  t.begin_shadow(1, t.hole());
  EXPECT_EQ(t.shadow_dirty_count(), 0u);
  EXPECT_FALSE(t.shadow_filled(0));

  t.shadow_mark_filled(0);
  EXPECT_TRUE(t.shadow_filled(0));
  t.shadow_mark_dirty(2);
  t.shadow_mark_dirty(2);  // idempotent
  EXPECT_TRUE(t.shadow_dirty(2));
  EXPECT_EQ(t.shadow_dirty_count(), 1u);
  t.shadow_clear_dirty(2);
  EXPECT_FALSE(t.shadow_dirty(2));
  EXPECT_EQ(t.shadow_dirty_count(), 0u);
  t.abort_shadow();
}

TEST(NomadTable, ValidateCatchesInjectedBitFlips) {
  const Geometry g = small_geom();
  {
    TranslationTable t(g, TableMode::Shadow);
    t.flip_pending_bit(0);
    EXPECT_NE(t.validate().find("pending bit"), std::string::npos);
  }
  {
    TranslationTable t(g, TableMode::Shadow);
    t.flip_occupant_bit(1, 0);
    EXPECT_NE(t.validate().find("occupant"), std::string::npos);
  }
}

// --- end-to-end: the nomad scheme under MemSim ------------------------------

[[nodiscard]] MemSimConfig nomad_cfg() {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.scheme = "nomad";
  cfg.controller.migration_enabled = true;
  cfg.controller.swap_interval = 1000;
  cfg.audit_interval = 2048;  // periodic full validate() during the run
  return cfg;
}

/// `n` measured references of pgbench, after `n / 2` of instant warm-up
/// unless `instant_warmup` is false.
[[nodiscard]] RunResult replay(const MemSimConfig& cfg, std::uint64_t n,
                               std::uint64_t seed = 21,
                               bool instant_warmup = true) {
  MemSim sim(cfg);
  auto w = make_pgbench(seed);
  const std::uint64_t warm = instant_warmup ? n / 2 : 0;
  hmm::replay(sim, *w, warm, warm + n);
  return sim.result();
}

TEST(NomadSim, MigratesAndRaisesOnPackageShare) {
  const std::uint64_t n = 120000;
  MemSimConfig stat = nomad_cfg();
  stat.controller.migration_enabled = false;
  const RunResult without = replay(stat, n);
  const RunResult with = replay(nomad_cfg(), n);
  EXPECT_GT(with.swaps, 0u);
  EXPECT_GT(with.migrated_bytes, 0u);
  EXPECT_GT(with.on_package_fraction, without.on_package_fraction);
}

TEST(NomadSim, RunsAreDeterministic) {
  const RunResult a = replay(nomad_cfg(), 40000);
  const RunResult b = replay(nomad_cfg(), 40000);
  EXPECT_EQ(describe(a), describe(b));
}

TEST(NomadSim, TotalChunkLossAbortsIntoDegradedModeNotAWedge) {
  MemSimConfig cfg = nomad_cfg();
  cfg.fault.seed = 7;
  cfg.fault.add(fault::FaultSite::MigrationChunkDrop, 1.0);
  // Every copy chunk drops: each transaction exhausts its retry budget
  // and aborts; after kDegradeAfterAborts consecutive aborts the engine
  // freezes the table. The run must COMPLETE (periodic audits clean) —
  // nomad has no wedge state. No instant warm-up: instant transactions
  // stream no chunks, so they would commit fault-free (and the swaps
  // counter spans the sim's lifetime).
  const RunResult r = replay(cfg, 40000, 21, /*instant_warmup=*/false);
  EXPECT_EQ(r.swaps, 0u);  // nothing ever commits
  EXPECT_GT(r.swap_aborts, 0u);
  EXPECT_TRUE(r.degraded);
}

TEST(NomadSim, ModerateFaultsRecoverViaRetryOrAbort) {
  MemSimConfig cfg = nomad_cfg();
  cfg.fault.seed = 11;
  cfg.fault.add(fault::FaultSite::MigrationChunkDrop, 0.05);
  cfg.fault.add(fault::FaultSite::SwapAbort, 0.01);
  const RunResult r = replay(cfg, 80000);
  // The run completed with audits on; recovery happened (retries and/or
  // rolled-back transactions), and progress was still made.
  EXPECT_GT(r.chunk_retries + r.swap_aborts, 0u);
  EXPECT_GT(r.swaps, 0u);
}

TEST(NomadSim, ParallelSweepIsBitIdenticalToSerial) {
  std::vector<runner::ExperimentSpec> grid;
  for (const char* key : {"nomad/sweep/a", "nomad/sweep/b"}) {
    runner::ExperimentSpec s;
    s.key = key;
    s.workload = WorkloadInfo{"pgbench", "", 0, make_pgbench};
    s.config = nomad_cfg();
    s.accesses = 8000;
    grid.push_back(s);
  }
  const std::vector<runner::CellResult> serial =
      runner::ExperimentRunner({.jobs = 1}).run(grid);
  const std::vector<runner::CellResult> parallel =
      runner::ExperimentRunner({.jobs = 2}).run(grid);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(grid[i].key);
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(parallel[i].ok) << parallel[i].error;
    EXPECT_EQ(serial[i].result.avg_latency, parallel[i].result.avg_latency);
    EXPECT_EQ(serial[i].result.end_time, parallel[i].result.end_time);
    EXPECT_EQ(serial[i].result.swaps, parallel[i].result.swaps);
    EXPECT_EQ(serial[i].result.migrated_bytes,
              parallel[i].result.migrated_bytes);
  }
}

}  // namespace
}  // namespace hmm
