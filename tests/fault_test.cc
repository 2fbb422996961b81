// Fault layer tests: injector determinism, the always-on HMM_CHECK macro,
// swap abort/rollback correctness (the table must land on a valid Fig-8
// state), degraded mode, the design-N wedge, the invariant auditor's
// corruption detection, and MemSim's watchdog + wall-clock deadline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.hh"
#include "core/migration.hh"
#include "fault/auditor.hh"
#include "fault/fault_injector.hh"
#include "fault/sim_error.hh"
#include "schemes/swap_scheme.hh"
#include "sim/memsim.hh"
#include "trace/workloads.hh"

namespace hmm {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::SimError;
using fault::SimErrorKind;

// --- injector determinism ---------------------------------------------------

TEST(FaultInjectorTest, SamePlanSameDecisionsAndEventLog) {
  FaultPlan plan;
  plan.seed = 123;
  plan.add(FaultSite::MigrationChunkDrop, 0.3)
      .add(FaultSite::ChannelStall, 0.05);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(a.fires(FaultSite::MigrationChunkDrop, i),
              b.fires(FaultSite::MigrationChunkDrop, i));
    EXPECT_EQ(a.fires(FaultSite::ChannelStall, i),
              b.fires(FaultSite::ChannelStall, i));
  }
  EXPECT_GT(a.total_fires(), 0u);
  EXPECT_EQ(a.total_fires(), b.total_fires());
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].site, b.events()[i].site);
    EXPECT_EQ(a.events()[i].opportunity, b.events()[i].opportunity);
    EXPECT_EQ(a.events()[i].detail, b.events()[i].detail);
  }
}

TEST(FaultInjectorTest, SiteDecisionsAreIndependentOfOtherSites) {
  FaultPlan plan;
  plan.seed = 7;
  plan.add(FaultSite::MigrationChunkDrop, 0.2)
      .add(FaultSite::SwapAbort, 0.2);
  // `a` interleaves opportunities at both sites; `c` only ever asks about
  // chunk drops. The drop sequence must be identical: each site draws from
  // its own RNG stream, indexed by its own opportunity counter.
  FaultInjector a(plan);
  FaultInjector c(plan);
  std::vector<bool> from_a;
  std::vector<bool> from_c;
  for (int i = 0; i < 2000; ++i) {
    from_a.push_back(a.fires(FaultSite::MigrationChunkDrop));
    (void)a.fires(FaultSite::SwapAbort);
    from_c.push_back(c.fires(FaultSite::MigrationChunkDrop));
  }
  EXPECT_EQ(from_a, from_c);
}

TEST(FaultInjectorTest, AfterAndMaxFiresWindowTheRule) {
  FaultPlan plan;
  plan.add(FaultSite::SwapAbort, 1.0, /*after=*/5, /*max_fires=*/2);
  FaultInjector inj(plan);
  for (std::uint64_t op = 0; op < 10; ++op) {
    EXPECT_EQ(inj.fires(FaultSite::SwapAbort), op == 5 || op == 6)
        << "opportunity " << op;
  }
  EXPECT_EQ(inj.opportunities(FaultSite::SwapAbort), 10u);
  EXPECT_EQ(inj.fires_count(FaultSite::SwapAbort), 2u);
  EXPECT_EQ(inj.total_fires(), 2u);
}

TEST(FaultInjectorTest, EmptyPlanIsFullyDisabled) {
  FaultInjector inj{FaultPlan{}};
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(inj.fires(FaultSite::MigrationChunkDrop));
  EXPECT_EQ(inj.total_fires(), 0u);
  EXPECT_TRUE(inj.events().empty());
}

TEST(FaultInjectorTest, SiteNamesRoundTrip) {
  for (unsigned i = 0; i < fault::kFaultSiteCount; ++i) {
    const auto s = static_cast<FaultSite>(i);
    FaultSite parsed{};
    ASSERT_TRUE(fault::site_from_name(to_string(s), parsed)) << to_string(s);
    EXPECT_EQ(parsed, s);
  }
  FaultSite parsed{};
  EXPECT_FALSE(fault::site_from_name("no-such-site", parsed));
}

// --- HMM_CHECK --------------------------------------------------------------

TEST(HmmCheckTest, FailureThrowsStructuredSimErrorWithLocation) {
  try {
    HMM_CHECK(1 + 1 == 3, "arithmetic broke");
    FAIL() << "HMM_CHECK did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::CheckFailed);
    const std::string what = e.what();
    EXPECT_NE(what.find("[check]"), std::string::npos) << what;
    EXPECT_NE(what.find("arithmetic broke"), std::string::npos) << what;
    EXPECT_NE(what.find("fault_test.cc"), std::string::npos) << what;
  }
}

TEST(HmmCheckTest, PassingConditionIsSilent) {
  EXPECT_NO_THROW(HMM_CHECK(2 + 2 == 4, "never printed"));
}

// --- engine recovery --------------------------------------------------------

// Small Section-III geometry + both DRAM models + an engine wired to an
// injector; pumps through drain_regions() like the swap fuzzer.
struct EngineRig {
  Geometry g{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  TranslationTable table;
  DramSystem on;
  DramSystem off;
  MigrationEngine engine;
  FaultInjector injector;

  EngineRig(MigrationDesign d, const FaultPlan& plan)
      : table(g, table_mode(d)),
        on(DramSystem::make(Region::OnPackage)),
        off(DramSystem::make(Region::OffPackage)),
        engine(table, on, off, d),
        injector(plan) {
    engine.set_fault_injector(&injector);
  }

  /// Pump completions until the engine settles (idle or wedged).
  void pump() {
    Cycle now = 0;
    drain_regions(
        on, off, Drain::Completely, now, 200000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        [&] { return engine.idle() || engine.wedged(); });
  }
};

class AbortRollback : public ::testing::TestWithParam<MigrationDesign> {};

TEST_P(AbortRollback, OneShotAbortRollsBackToAValidStateThenRecovers) {
  FaultPlan plan;
  plan.add(FaultSite::SwapAbort, 1.0, /*after=*/0, /*max_fires=*/1);
  EngineRig rig(GetParam(), plan);
  const PageId hot = 20;  // an Original Slow page (slots() == 8)

  ASSERT_TRUE(rig.engine.start_swap(hot, 0, /*cold_slot=*/0, 0));
  rig.pump();

  // The abort fired at the very first chunk completion: no step had
  // finished, so no mutation was applied — the table is the pre-swap state.
  EXPECT_TRUE(rig.engine.idle());
  EXPECT_EQ(rig.engine.stats().swaps_aborted, 1u);
  EXPECT_FALSE(rig.engine.degraded());
  EXPECT_FALSE(rig.table.fill_active());
  const std::string err = rig.table.validate();
  EXPECT_TRUE(err.empty()) << err;

  // The injector's single shot is spent: the same swap now completes.
  ASSERT_TRUE(rig.engine.start_swap(hot, 0, 0, 1000));
  rig.pump();
  EXPECT_TRUE(rig.engine.idle());
  EXPECT_EQ(rig.engine.stats().swaps_completed, 1u);
  const std::string err2 = rig.table.validate();
  EXPECT_TRUE(err2.empty()) << err2;
  EXPECT_EQ(rig.table.translate(rig.g.machine_base(hot)).region,
            Region::OnPackage);
}

INSTANTIATE_TEST_SUITE_P(NMinus1AndLive, AbortRollback,
                         ::testing::Values(MigrationDesign::NMinus1,
                                           MigrationDesign::LiveMigration));

TEST(EngineRecovery, MidSwapAbortThatConsumesTheSlotDegradesImmediately) {
  // 512KB page / 512B chunks = 1024 chunks per step, two completions each
  // (read + write). `after=2500` lands the abort inside step 2 of the
  // Fig 8(a) plan — after step 1 moved the hot page into the empty slot.
  FaultPlan plan;
  plan.add(FaultSite::SwapAbort, 1.0, /*after=*/2500, /*max_fires=*/1);
  EngineRig rig(MigrationDesign::NMinus1, plan);

  ASSERT_TRUE(rig.engine.start_swap(/*hot=*/20, 0, /*cold_slot=*/0, 0));
  rig.pump();

  EXPECT_TRUE(rig.engine.idle());
  EXPECT_EQ(rig.engine.stats().swaps_aborted, 1u);
  // Step 1's mutations stand: the empty slot is gone for good, so the
  // N-1 choreography can never start another swap — degraded mode.
  EXPECT_FALSE(rig.table.empty_slot().has_value());
  EXPECT_TRUE(rig.engine.degraded());
  EXPECT_FALSE(rig.engine.can_swap(21, 1));
  // ...but the table is a valid state: the dangling P bit keeps routing
  // the ghost page to Ω, where its data genuinely still lives.
  const std::string err = rig.table.validate();
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EngineRecovery, ConsecutiveAbortsEnterDegradedMode) {
  FaultPlan plan;
  plan.add(FaultSite::SwapAbort, 1.0);  // every swap aborts immediately
  EngineRig rig(MigrationDesign::NMinus1, plan);

  for (unsigned i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.engine.can_swap(20, 0)) << "attempt " << i;
    ASSERT_TRUE(rig.engine.start_swap(20, 0, 0, i * 1000));
    rig.pump();
    ASSERT_TRUE(rig.engine.idle());
  }
  EXPECT_EQ(rig.engine.stats().swaps_aborted, 3u);
  EXPECT_TRUE(rig.engine.degraded());
  EXPECT_FALSE(rig.engine.can_swap(20, 0));
  const std::string err = rig.table.validate();
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EngineRecovery, ChunkDropsAreRetriedAndTheSwapStillCompletes) {
  FaultPlan plan;
  plan.add(FaultSite::MigrationChunkDrop, 1.0, /*after=*/0, /*max_fires=*/2);
  EngineRig rig(MigrationDesign::NMinus1, plan);

  ASSERT_TRUE(rig.engine.start_swap(20, 0, 0, 0));
  rig.pump();
  EXPECT_TRUE(rig.engine.idle());
  EXPECT_EQ(rig.engine.stats().swaps_completed, 1u);
  EXPECT_EQ(rig.engine.stats().chunks_dropped, 2u);
  EXPECT_EQ(rig.engine.stats().chunk_retries, 2u);
  EXPECT_EQ(rig.engine.stats().swaps_aborted, 0u);
  const std::string err = rig.table.validate();
  EXPECT_TRUE(err.empty()) << err;
}

TEST(EngineRecovery, DesignNWedgesInsteadOfCorrupting) {
  FaultPlan plan;
  plan.add(FaultSite::SwapAbort, 1.0, /*after=*/0, /*max_fires=*/1);
  EngineRig rig(MigrationDesign::N, plan);

  ASSERT_TRUE(rig.engine.start_swap(20, 0, 0, 0));
  rig.pump();

  // No recovery choreography: the engine pins itself non-idle with nothing
  // in flight — exactly the state the MemSim watchdog detects.
  EXPECT_TRUE(rig.engine.wedged());
  EXPECT_FALSE(rig.engine.idle());
  EXPECT_EQ(rig.engine.in_flight_chunks(), 0u);
  EXPECT_EQ(rig.engine.stats().swaps_wedged, 1u);
  EXPECT_FALSE(rig.engine.can_swap(21, 1));
  // The functional-N table was never touched mid-swap.
  const std::string err = rig.table.validate();
  EXPECT_TRUE(err.empty()) << err;
}

// --- invariant auditor ------------------------------------------------------

// A bare translation table as the audit subject (nothing else to check).
class TableSubject final : public fault::Auditable {
 public:
  explicit TableSubject(const TranslationTable& table) : table_(table) {}
  [[nodiscard]] const TranslationTable* audited_table()
      const noexcept override {
    return &table_;
  }
  [[nodiscard]] std::string audit_check(
      const fault::AuditWindow&) const override {
    return {};
  }

 private:
  const TranslationTable& table_;
};

TEST(InvariantAuditorTest, AuditsEveryIntervalAndPassesOnACleanTable) {
  const Geometry g{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  TranslationTable table(g, TableMode::HardwareNMinus1);
  const TableSubject subject(table);
  fault::InvariantAuditor auditor(&subject, /*interval=*/4);
  for (int i = 0; i < 8; ++i) EXPECT_NO_THROW(auditor.on_access());
  EXPECT_EQ(auditor.audits(), 2u);

  fault::InvariantAuditor disabled(&subject, /*interval=*/0);
  for (int i = 0; i < 100; ++i) disabled.on_access();
  EXPECT_EQ(disabled.audits(), 0u);
}

TEST(InvariantAuditorTest, DetectsAFlippedPendingBit) {
  const Geometry g{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  TranslationTable table(g, TableMode::HardwareNMinus1);
  const TableSubject subject(table);
  fault::InvariantAuditor auditor(&subject, 1);
  EXPECT_NO_THROW(auditor.audit());

  ASSERT_TRUE(table.empty_slot().has_value());
  table.flip_pending_bit(*table.empty_slot());
  try {
    auditor.audit();
    FAIL() << "corrupted pending bit passed the audit";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find("[audit]"), std::string::npos);
  }
}

TEST(InvariantAuditorTest, DetectsAFlippedOccupantBit) {
  const Geometry g{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  TranslationTable table(g, TableMode::HardwareNMinus1);
  const TableSubject subject(table);
  fault::InvariantAuditor auditor(&subject, 1);
  EXPECT_NO_THROW(auditor.audit());

  // Flip a high bit of an occupied row: the forged page id is outside the
  // 32-page address space, which the audit must reject.
  SlotId occupied = 0;
  while (table.occupant(occupied) == kInvalidPage) ++occupied;
  table.flip_occupant_bit(occupied, 20);
  try {
    auditor.audit();
    FAIL() << "corrupted occupant field passed the audit";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
  }
}

TEST(InvariantAuditorTest, CorruptedTableRowNamesTheTableInItsError) {
  const Geometry g{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  TranslationTable table(g, TableMode::HardwareNMinus1);
  const TableSubject subject(table);
  fault::InvariantAuditor auditor(&subject, 1);

  SlotId occupied = 0;
  while (table.occupant(occupied) == kInvalidPage) ++occupied;
  table.flip_occupant_bit(occupied, 20);
  try {
    auditor.audit();
    FAIL() << "corrupted table row passed the audit";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find("translation table:"),
              std::string::npos);
  }
}

TEST(InvariantAuditorTest, MultiQueueMismatchSurfacesThroughTheController) {
  ControllerConfig cfg;
  cfg.geom = Geometry{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  cfg.swap_interval = 1'000'000;  // monitor only; no swap
  DramSystem on = DramSystem::make(Region::OnPackage);
  DramSystem off = DramSystem::make(Region::OffPackage);
  schemes::SwapScheme ctl(MigrationDesign::NMinus1, cfg, on, off);
  fault::InvariantAuditor auditor(&ctl, 1);

  // Touch a few off-package pages so the multi-queue tracker has entries.
  for (int i = 0; i < 4; ++i)
    (void)ctl.on_access((20 + i) * 512 * KiB, AccessType::Read, 10 * i);
  EXPECT_NO_THROW(auditor.audit());

  ctl.mq_for_test().corrupt_entry_for_test();  // one page tracked twice
  try {
    auditor.audit();
    FAIL() << "a page tracked twice passed the audit";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find("multi-queue tracker:"),
              std::string::npos);
  }
}

TEST(InvariantAuditorTest, NonMonotonicFillBitmapRaisesAuditFailed) {
  const Geometry g{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
  TranslationTable table(g, TableMode::HardwareNMinus1);
  const TableSubject subject(table);
  fault::InvariantAuditor auditor(&subject, 1);

  const SlotId slot = *table.empty_slot();
  const PageId incoming = 20;
  table.begin_fill(slot, incoming, /*old_base=*/incoming * g.page_bytes);
  table.mark_sub_block(0);
  table.mark_sub_block(1);
  EXPECT_NO_THROW(auditor.audit());  // records ready == 2 for this page

  // A buggy engine restarts the same page's fill with fewer sub-blocks
  // landed: the audit must flag the bitmap going backwards mid-fill.
  table.end_fill();
  table.begin_fill(slot, incoming, incoming * g.page_bytes);
  table.mark_sub_block(0);
  try {
    auditor.audit();
    FAIL() << "non-monotonic fill bitmap passed the audit";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find("fill bitmap lost sub-blocks"),
              std::string::npos);
  }
}

// --- MemSim: watchdog, deadline, end-to-end fault storms --------------------

MemSimConfig sim_cfg(MigrationDesign d, bool migration = true) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.scheme = to_string(d);
  cfg.controller.migration_enabled = migration;
  cfg.controller.swap_interval = 1000;
  return cfg;
}

TEST(MemSimFaults, WatchdogTurnsAWedgedDesignNSwapIntoAnError) {
  MemSimConfig cfg = sim_cfg(MigrationDesign::N);
  cfg.fault.add(FaultSite::MigrationChunkDrop, 1.0);
  MemSim sim(cfg);
  auto w = make_pgbench(7);
  try {
    sim.run(*w, 60000);
    sim.finish();
    FAIL() << "the wedged swap was not detected";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::Watchdog);
    EXPECT_NE(std::string(e.what()).find("[watchdog]"), std::string::npos);
  }
}

TEST(MemSimFaults, WallClockDeadlineRaisesTimeout) {
  MemSimConfig cfg = sim_cfg(MigrationDesign::LiveMigration, false);
  cfg.max_wall_seconds = 1e-9;
  MemSim sim(cfg);
  auto w = make_pgbench(7);
  try {
    sim.run(*w, 20000);
    FAIL() << "the deadline never fired";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::Timeout);
  }
}

TEST(MemSimFaults, InjectedTableCorruptionFailsTheAudit) {
  MemSimConfig cfg = sim_cfg(MigrationDesign::NMinus1);
  cfg.audit_interval = 256;
  cfg.fault.add(FaultSite::TableBitFlip, 1.0, /*after=*/2000, /*max_fires=*/1);
  MemSim sim(cfg);
  auto w = make_pgbench(7);
  // The flip is one deliberate bit of table corruption; it must surface as
  // a structured SimError (audit, or an HMM_CHECK tripping even earlier) —
  // never as a silently wrong run.
  EXPECT_THROW(
      {
        sim.run(*w, 60000);
        sim.finish();
      },
      SimError);
}

TEST(MemSimFaults, NMinus1AndLiveSurviveAFaultStormWithAuditsOn) {
  for (const MigrationDesign d :
       {MigrationDesign::NMinus1, MigrationDesign::LiveMigration}) {
    MemSimConfig cfg = sim_cfg(d);
    cfg.audit_interval = 512;
    cfg.fault.seed = 99;
    cfg.fault.add(FaultSite::MigrationChunkDrop, 1e-3)
        .add(FaultSite::MigrationChunkDelay, 1e-3)
        .add(FaultSite::ChannelStall, 1e-3)
        .add(FaultSite::SwapAbort, 1e-5);
    MemSim sim(cfg);
    auto w = make_pgbench(7);
    sim.run(*w, 60000);
    sim.finish();
    const RunResult r = sim.result();
    EXPECT_GT(r.audits, 0u) << to_string(d);
    EXPECT_GT(r.swaps, 0u) << to_string(d);
  }
}

}  // namespace
}  // namespace hmm
