// RAS layer tests: deterministic SEC-DED outcomes, patrol scrub surfacing
// latent stuck-at faults, spare-pool remapping, the capacity floor, the
// evacuate-then-blacklist choreography under every scheme in the zoo
// (including frames that start failing mid-swap), and snapshot round-trip
// bit-identity of the RAS state.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/sim_error.hh"
#include "ras/ras.hh"
#include "runner/journal.hh"
#include "schemes/registry.hh"
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

Geometry small_geom() {
  return Geometry{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
}
constexpr std::uint64_t kPage = 512 * KiB;

ras::RasConfig ras_on() {
  ras::RasConfig cfg;
  cfg.enabled = true;
  return cfg;
}

// --- fault-site plumbing (media sites) --------------------------------------

TEST(RasSites, MediaSiteNamesRoundTrip) {
  EXPECT_EQ(std::string(to_string(FaultSite::MediaTransient)),
            "media-transient");
  EXPECT_EQ(std::string(to_string(FaultSite::MediaStuckAt)),
            "media-stuck-at");
  for (const FaultSite s :
       {FaultSite::MediaTransient, FaultSite::MediaStuckAt}) {
    FaultSite parsed{};
    ASSERT_TRUE(fault::site_from_name(to_string(s), parsed));
    EXPECT_EQ(parsed, s);
  }
}

// --- ECC outcomes -----------------------------------------------------------

TEST(RasEngine, NoMediaRulesMeansNoErrorsAndNoPenalty) {
  ras::RasConfig cfg = ras_on();
  cfg.scrub_interval = 0;  // isolate the ECC path
  ras::RasEngine eng(cfg, small_geom(), nullptr);
  for (PageId f = 0; f < 8; ++f)
    EXPECT_EQ(eng.on_demand_access(f, f * 100), 0u);
  EXPECT_EQ(eng.metrics().demand_corrected, 0u);
  EXPECT_EQ(eng.metrics().demand_uncorrectable, 0u);
  EXPECT_FALSE(eng.has_pending());
}

TEST(RasEngine, DueFlagsTheFrameAndChargesTheRecoveryPenalty) {
  ras::RasConfig cfg = ras_on();
  cfg.scrub_interval = 0;
  cfg.due_fraction = 1.0;  // every transient is a double-bit error
  FaultPlan plan;
  plan.add(FaultSite::MediaTransient, 1.0);
  FaultInjector inj(plan);
  ras::RasEngine eng(cfg, small_geom(), &inj);
  const Cycle penalty = eng.on_demand_access(7, 0);
  EXPECT_GE(penalty, ras::RasEngine::kDuePenalty);
  EXPECT_EQ(eng.metrics().demand_uncorrectable, 1u);
  ASSERT_TRUE(eng.has_pending());
  EXPECT_EQ(eng.next_pending(), 7u);
  EXPECT_TRUE(eng.quarantined(7));
  EXPECT_FALSE(eng.retired(7));  // evacuate-then-blacklist: pending only
}

TEST(RasEngine, RepeatedCorrectedErrorsEscalateToRetirement) {
  ras::RasConfig cfg = ras_on();
  cfg.scrub_interval = 0;
  cfg.due_fraction = 0.0;  // every transient is a corrected single-bit
  cfg.ce_retire_threshold = 3;
  FaultPlan plan;
  plan.add(FaultSite::MediaTransient, 1.0);
  FaultInjector inj(plan);
  ras::RasEngine eng(cfg, small_geom(), &inj);
  EXPECT_EQ(eng.on_demand_access(5, 0), ras::RasEngine::kCePenalty);
  EXPECT_EQ(eng.on_demand_access(5, 1), ras::RasEngine::kCePenalty);
  EXPECT_FALSE(eng.has_pending());
  EXPECT_EQ(eng.on_demand_access(5, 2), ras::RasEngine::kCePenalty);
  EXPECT_EQ(eng.metrics().demand_corrected, 3u);
  ASSERT_TRUE(eng.has_pending());
  EXPECT_EQ(eng.next_pending(), 5u);
}

TEST(RasEngine, EccOutcomesAreIndependentOfProbeInterleaving) {
  ras::RasConfig cfg = ras_on();
  cfg.scrub_interval = 0;
  cfg.due_fraction = 0.5;
  FaultPlan plan;
  plan.seed = 42;
  plan.add(FaultSite::MediaTransient, 1.0);
  FaultInjector ia(plan);
  FaultInjector ib(plan);
  ras::RasEngine a(cfg, small_geom(), &ia);
  ras::RasEngine b(cfg, small_geom(), &ib);
  // Same per-frame probe counts, opposite interleavings: payload draws
  // are a pure function of (seed, frame, draw index), so the engines must
  // end in byte-identical states.
  for (int round = 0; round < 8; ++round) {
    (void)a.on_demand_access(3, 0);
    (void)a.on_demand_access(4, 0);
    (void)b.on_demand_access(4, 0);
    (void)b.on_demand_access(3, 0);
  }
  snap::Writer wa;
  a.save(wa);
  snap::Writer wb;
  b.save(wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

// --- patrol scrub -----------------------------------------------------------

TEST(RasEngine, ScrubSurfacesALatentStuckCellBeforeDemandTouchesIt) {
  ras::RasConfig cfg = ras_on();
  FaultPlan plan;
  // Exactly one stuck cell, on the very first probe anywhere — which will
  // be the patrol scrubber's first walk step (frame 0), not a demand read.
  plan.add(FaultSite::MediaStuckAt, 1.0, /*after=*/0, /*max_fires=*/1);
  FaultInjector inj(plan);
  ras::RasEngine eng(cfg, small_geom(), &inj);
  // A demand access to frame 10 well past the first scrub tick: the
  // scrubber probes frame 0 first and surfaces (and corrects) the latent
  // stuck cell there.
  (void)eng.on_demand_access(10, cfg.scrub_interval);
  EXPECT_GE(eng.metrics().scrub_probes, 1u);
  EXPECT_EQ(eng.metrics().scrub_corrected, 1u);
  EXPECT_EQ(eng.metrics().stuck_faults, 1u);
  EXPECT_EQ(eng.metrics().demand_corrected, 0u);

  // A demand read of frame 0 right after the scrub held it: SEC corrects
  // the stuck cell in-line and the access also pays the scrub collision.
  const Cycle p = eng.on_demand_access(0, cfg.scrub_interval + 1);
  EXPECT_GE(p, ras::RasEngine::kCePenalty);
  EXPECT_EQ(eng.metrics().demand_corrected, 1u);
  EXPECT_EQ(eng.metrics().scrub_collisions, 1u);
}

TEST(RasEngine, ScrubWalkSkipsRetiredFrames) {
  ras::RasConfig cfg = ras_on();
  ras::RasEngine eng(cfg, small_geom(), nullptr);
  eng.flag_frame_for_test(0);
  ASSERT_TRUE(eng.remap_frame(0, 0).has_value());
  ASSERT_TRUE(eng.retired(0));
  // Walk the scrubber across every frame twice; probing a retired frame
  // would be touching blacklisted storage.
  const PageId total = small_geom().total_pages();
  (void)eng.on_demand_access(5, cfg.scrub_interval * total * 2);
  EXPECT_GE(eng.metrics().scrub_probes, total);  // it kept walking
}

// --- retirement state machine ----------------------------------------------

TEST(RasEngine, RemapAssignsSparesInOrderAndResolvesChains) {
  ras::RasConfig cfg = ras_on();
  ras::RasEngine eng(cfg, small_geom(), nullptr);
  const Geometry g = small_geom();
  const PageId first_spare = g.omega() - cfg.spare_frames;  // 27

  eng.flag_frame_for_test(7);
  const auto s1 = eng.remap_frame(7, 100);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*s1, first_spare);
  EXPECT_TRUE(eng.retired(7));
  EXPECT_EQ(eng.resolve(7), first_spare);
  // A consumed spare stays reserved: its identity page never becomes
  // OS-resident, only relocated data lives there.
  EXPECT_TRUE(eng.reserved_spare(first_spare));

  // The spare standing in for frame 7 fails too: the chain extends.
  eng.flag_frame_for_test(first_spare);
  const auto s2 = eng.remap_frame(first_spare, 200);
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(*s2, first_spare + 1);
  EXPECT_EQ(eng.resolve(7), first_spare + 1);

  EXPECT_EQ(eng.metrics().frames_retired, 2u);
  EXPECT_EQ(eng.metrics().spares_used, 2u);
  EXPECT_EQ(eng.spares_left(), cfg.spare_frames - 2);
  ASSERT_EQ(eng.retirement_log().size(), 2u);
  EXPECT_EQ(eng.retirement_log()[0].frame, 7u);
  EXPECT_EQ(eng.retirement_log()[0].at, 100u);
}

TEST(RasEngine, AFailingUnusedSpareRetiresDirectly) {
  ras::RasConfig cfg = ras_on();
  ras::RasEngine eng(cfg, small_geom(), nullptr);
  const PageId last_spare = small_geom().omega() - 1;  // 30
  eng.flag_frame_for_test(last_spare);
  EXPECT_TRUE(eng.retired(last_spare));  // data-free by construction
  EXPECT_FALSE(eng.has_pending());
  EXPECT_EQ(eng.spares_left(), cfg.spare_frames - 1);
}

TEST(RasEngine, DryPoolReturnsNulloptAndPinningKeepsServing) {
  ras::RasConfig cfg = ras_on();
  cfg.spare_frames = 1;
  ras::RasEngine eng(cfg, small_geom(), nullptr);
  eng.flag_frame_for_test(3);
  ASSERT_TRUE(eng.remap_frame(3, 0).has_value());
  eng.flag_frame_for_test(4);
  EXPECT_FALSE(eng.remap_frame(4, 0).has_value());
  eng.pin_frame(4);
  EXPECT_TRUE(eng.quarantined(4));
  EXPECT_FALSE(eng.retired(4));  // pinned frames still serve in place
  EXPECT_EQ(eng.metrics().frames_pinned, 1u);
}

TEST(RasEngine, CapacityFloorRaisesStructuredError) {
  ras::RasConfig cfg = ras_on();
  cfg.spare_frames = 2;
  cfg.capacity_floor = 0.95;  // 30 of 32 frames
  ras::RasEngine eng(cfg, small_geom(), nullptr);
  eng.flag_frame_for_test(1);
  eng.flag_frame_for_test(2);
  try {
    eng.flag_frame_for_test(3);
    FAIL() << "the capacity floor never fired";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::CapacityExhausted);
    EXPECT_NE(std::string(e.what()).find("retirement floor"),
              std::string::npos);
  }
}

TEST(RasEngine, StateRoundTripsThroughSnapshot) {
  ras::RasConfig cfg = ras_on();
  FaultPlan plan;
  plan.seed = 9;
  plan.add(FaultSite::MediaTransient, 0.5)
      .add(FaultSite::MediaStuckAt, 0.1);
  FaultInjector inj(plan);
  ras::RasEngine eng(cfg, small_geom(), &inj);
  for (Cycle t = 0; t < 50; ++t)
    (void)eng.on_demand_access(t % 20, t * 1000);
  if (eng.has_pending()) (void)eng.remap_frame(eng.next_pending(), 50'000);

  snap::Writer w;
  eng.save(w);
  FaultInjector inj2(plan);
  ras::RasEngine back(cfg, small_geom(), &inj2);
  snap::Reader r(w.buffer());
  back.restore(r);
  snap::Writer w2;
  back.save(w2);
  EXPECT_EQ(w2.buffer(), w.buffer());
  EXPECT_EQ(back.retired_count(), eng.retired_count());
  EXPECT_EQ(back.healthy_frames(), eng.healthy_frames());
}

// --- swap-scheme-driven evacuation ------------------------------------------

struct Rig {
  Rig(MigrationDesign d, const ControllerConfig& cfg,
      const ras::RasConfig& rcfg)
      : on(DramSystem::make(Region::OnPackage)),
        off(DramSystem::make(Region::OffPackage)),
        ctl(d, cfg, on, off),
        ras(rcfg, cfg.geom, nullptr) {
    ctl.set_ras(&ras);
  }

  /// Feed an access and pump engine traffic to completion.
  void access(PhysAddr a, Cycle now) {
    (void)ctl.on_access(a, AccessType::Read, now);
    drain_regions(
        on, off, Drain::Completely, now, 100000,
        [&](const DramCompletion& c, Region r) {
          ctl.on_background_completion(c, r);
        },
        [&] { return ctl.background_idle(); });
  }

  DramSystem on;
  DramSystem off;
  schemes::SwapScheme ctl;
  ras::RasEngine ras;
};

ControllerConfig rig_cfg() {
  ControllerConfig cfg;
  cfg.geom = small_geom();
  cfg.swap_interval = 1'000'000;  // keep ordinary swaps out of the way
  return cfg;
}

TEST(RasController, OccupiedFrameIsEvacuatedThenBlacklisted) {
  // Design N's placement map can relocate any page, so an occupied fast
  // frame evacuates. N-1/Live only express the paper's two hardware moves
  // (original slow page at home, migrated fast page in a failing slot),
  // so for them the victim is an at-home off-package frame; their
  // identity-resident fast frames pin instead (next test).
  for (const MigrationDesign d :
       {MigrationDesign::N, MigrationDesign::NMinus1,
        MigrationDesign::LiveMigration}) {
    const PageId victim = d == MigrationDesign::N ? 3 : 20;
    Rig rig(d, rig_cfg(), ras_on());
    Cycle now = 0;
    rig.access(victim * kPage, now++);
    rig.ras.flag_frame_for_test(victim);
    for (int i = 0; i < 20 && !rig.ras.retired(victim); ++i)
      rig.access(5 * kPage, now += 1000);
    EXPECT_TRUE(rig.ras.retired(victim)) << to_string(d);
    // The occupant moved off and no route resolves to the victim frame.
    const Route r = rig.ctl.table().translate(victim * kPage);
    EXPECT_NE(r.mach >> small_geom().page_shift(), victim) << to_string(d);
    EXPECT_TRUE(rig.ctl.table().validate().empty()) << to_string(d);
    EXPECT_TRUE(rig.ctl.audit_check(fault::AuditWindow::all()).empty())
        << to_string(d);
  }
}

TEST(RasController, InexpressibleEvacuationPinsInsteadOfRetiring) {
  // An identity-resident fast page has no expressible relocation under
  // N-1/Live: the controller pins the frame, which keeps serving in place
  // and stays routable.
  for (const MigrationDesign d :
       {MigrationDesign::NMinus1, MigrationDesign::LiveMigration}) {
    Rig rig(d, rig_cfg(), ras_on());
    Cycle now = 0;
    rig.access(3 * kPage, now++);  // frame 3 on-package, identity page
    rig.ras.flag_frame_for_test(3);
    for (int i = 0; i < 20 && rig.ras.pinned_count() == 0; ++i)
      rig.access(5 * kPage, now += 1000);
    EXPECT_EQ(rig.ras.pinned_count(), 1u) << to_string(d);
    EXPECT_FALSE(rig.ras.retired(3)) << to_string(d);
    const Route r = rig.ctl.table().translate(3 * kPage);
    EXPECT_EQ(r.mach >> small_geom().page_shift(), 3u) << to_string(d);
    EXPECT_TRUE(rig.ctl.audit_check(fault::AuditWindow::all()).empty())
        << to_string(d);
  }
}

TEST(RasController, NomadHoleRetirementRelocatesTheHoleOntoASpare) {
  Rig rig(MigrationDesign::Nomad, rig_cfg(), ras_on());
  const PageId hole = rig.ctl.table().hole();
  ASSERT_EQ(hole, small_geom().omega());
  rig.ras.flag_frame_for_test(hole);
  rig.access(2 * kPage, 10);
  EXPECT_TRUE(rig.ras.retired(hole));
  // The hole moved onto the first spare; the table can keep migrating.
  const PageId first_spare =
      small_geom().omega() - rig.ras.config().spare_frames;
  EXPECT_EQ(rig.ctl.table().hole(), first_spare);
  EXPECT_TRUE(rig.ctl.table().validate().empty());
}

TEST(RasController, DryPoolPinsInsteadOfWedging) {
  ras::RasConfig rcfg = ras_on();
  rcfg.spare_frames = 0;
  Rig rig(MigrationDesign::N, rig_cfg(), rcfg);
  Cycle now = 0;
  rig.access(2 * kPage, now++);
  rig.ras.flag_frame_for_test(2);
  for (int i = 0; i < 10 && rig.ras.pinned_count() == 0; ++i)
    rig.access(5 * kPage, now += 1000);
  // Design N evacuates only onto a spare; with none left the frame pins
  // and keeps serving in place.
  EXPECT_EQ(rig.ras.pinned_count(), 1u);
  EXPECT_FALSE(rig.ras.retired(2));
  EXPECT_TRUE(rig.ctl.table().validate().empty());
}

TEST(RasController, FrameFailingMidSwapAbortsTheTransaction) {
  // Drive a real swap mid-flight, then flag a frame the plan touches. The
  // retirement must win: the transaction aborts, the frame is evacuated or
  // pinned, and the table lands on a valid state — never a commit into a
  // blacklisted frame.
  for (const MigrationDesign d :
       {MigrationDesign::NMinus1, MigrationDesign::LiveMigration,
        MigrationDesign::Nomad}) {
    ControllerConfig cfg = rig_cfg();
    cfg.swap_interval = 50;
    Rig rig(d, cfg, ras_on());
    // Hammer one off-package page to make it the promotion candidate,
    // without pumping completions — the swap stays in flight.
    Cycle now = 0;
    PageId touched = kInvalidPage;
    for (int i = 0; i < 2000 && touched == kInvalidPage; ++i) {
      (void)rig.ctl.on_access(20 * kPage, AccessType::Read, now += 7);
      if (!rig.ctl.background_idle()) {
        for (PageId f = 0; f < small_geom().total_pages(); ++f)
          if (rig.ctl.engine().plan_touches(
                  [f](PageId frame) { return frame == f; })) {
            touched = f;
            break;
          }
      }
    }
    ASSERT_NE(touched, kInvalidPage) << to_string(d);
    rig.ras.flag_frame_for_test(touched);
    for (int i = 0; i < 30 && !rig.ras.retired(touched) &&
                    rig.ras.pinned_count() == 0;
         ++i)
      rig.access(5 * kPage, now += 1000);
    EXPECT_TRUE(rig.ras.retired(touched) || rig.ras.pinned_count() > 0)
        << to_string(d);
    EXPECT_TRUE(rig.ctl.table().validate().empty()) << to_string(d);
    EXPECT_TRUE(rig.ctl.audit_check(fault::AuditWindow::all()).empty())
        << to_string(d);
  }
}

// --- full-simulator behaviour ----------------------------------------------

MemSimConfig sim_cfg(const std::string& scheme) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.controller.swap_interval = 1000;
  cfg.scheme = scheme;
  cfg.ras.enabled = true;
  cfg.audit_interval = 4096;  // includes the RAS retired-route sweep
  return cfg;
}

TEST(RasSim, EverySchemeSurvivesAMediaStormOrFailsStructured) {
  for (const std::string& name : schemes::scheme_names()) {
    MemSimConfig cfg = sim_cfg(name);
    cfg.fault.seed = 11;
    cfg.fault.add(FaultSite::MediaTransient, 0.01)
        .add(FaultSite::MediaStuckAt, 0.002);
    MemSim sim(cfg);
    auto w = make_pgbench(7);
    try {
      sim.run(*w, 40'000);
      const RunResult r = sim.result();
      EXPECT_TRUE(r.ras_enabled) << name;
      EXPECT_GT(r.ras.demand_corrected + r.ras.scrub_corrected, 0u) << name;
      // Whatever was flagged has been dealt with or is being dealt with.
      EXPECT_EQ(r.ras.frames_retired,
                sim.ras_engine()->retired_count())
          << name;
    } catch (const SimError& e) {
      // A structured failure is an acceptable outcome of a storm — a
      // wedge, crash, or silent corruption is not.
      EXPECT_NE(e.kind(), SimErrorKind::Watchdog) << name << ": " << e.what();
    }
  }
}

TEST(RasSim, PermanentFaultStormHitsTheCapacityFloor) {
  MemSimConfig cfg = sim_cfg("Live");
  cfg.fault.add(FaultSite::MediaStuckAt, 1.0);
  cfg.ras.capacity_floor = 0.999;
  cfg.ras.scrub_interval = 500;  // scrub aggressively: more frames probed
  MemSim sim(cfg);
  auto w = make_pgbench(7);
  try {
    sim.run(*w, 200'000);
    FAIL() << "the capacity floor never fired";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::CapacityExhausted);
  }
}

TEST(RasSim, RetirementUnderConcurrentMigrationNeverCorruptsState) {
  // Satellite: sweep the flag over many points of the swap choreography.
  // Whatever phase the migration is in when the frame starts failing, the
  // run must stay audit-clean and the frame must end retired or pinned.
  for (const std::string& name : {std::string("Live"), std::string("nomad"),
                                  std::string("N-1")}) {
    for (const std::uint64_t k : {1000ull, 1500ull, 2000ull, 2500ull}) {
      MemSimConfig cfg = sim_cfg(name);
      cfg.controller.swap_interval = 500;
      cfg.audit_interval = 512;
      MemSim sim(cfg);
      auto w = make_pgbench(3);
      sim.run_chunk(*w, k);
      sim.mutable_ras()->flag_frame_for_test(2);
      sim.run_chunk(*w, 6000);
      sim.finish();
      EXPECT_TRUE(sim.ras_engine()->retired(2) ||
                  sim.ras_engine()->pinned_count() > 0)
          << name << " at k=" << k;
      EXPECT_GT(sim.auditor().audits(), 0u);
    }
  }
}

// --- rolling route sweep ---------------------------------------------------

// One demand read of `page`, driven outside the workloads.
void read_page(MemSim& sim, const Geometry& g, PageId page, Cycle at) {
  sim.step(TraceRecord{.addr = g.machine_base(page), .timestamp = at});
}

// Of sim_cfg's pages 16,379 are OS-visible, so audit window 12 sweeps
// pages [12284, 13307). The few reads of the quiet page each test makes
// cross no swap epoch and touch no retired frame.
constexpr PageId kWindow12Page = 12'384;
constexpr PageId kQuietPage = 9'000;

// Each audit translates one window of the OS pages, so a migrated page
// left on a retired frame is reported by the audit whose window covers
// it: within AuditWindow::kWindows audits, and no earlier. N-1/Live
// tables do not check retired frames themselves, so the sweep is the
// only witness here.
TEST(RasSim, RouteSweepReportsAMigratedPageAtItsWindowsRound) {
  MemSimConfig cfg = sim_cfg("Live");
  cfg.audit_interval = 1;  // one audit per access: rounds are countable
  const Geometry& g = cfg.controller.geom;
  MemSim sim(cfg);
  Cycle now = 0;
  sim.set_instant_migration(true);
  for (std::uint64_t i = 0; i < cfg.controller.swap_interval; ++i)
    read_page(sim, g, kWindow12Page, now += 100);
  sim.set_instant_migration(false);
  const auto home = [&](PageId p) {
    return g.page_of(sim.scheme().translate(g.machine_base(p)).mach);
  };
  const PageId frame = home(kWindow12Page);
  ASSERT_LT(frame, g.slots()) << "the hammered page was not promoted";
  // The frame's identity page lives elsewhere: only the window sees it.
  ASSERT_NE(home(frame), frame);

  // Retire the frame without evacuating it: the planted corruption.
  ras::RasEngine& ras = *sim.mutable_ras();
  ras.flag_frame_for_test(frame);
  ras.complete_retirement(frame, now);
  const std::uint64_t next =
      sim.auditor().audits() % fault::AuditWindow::kWindows;
  ASSERT_LT(next, 12u);
  for (std::uint64_t round = next; round < 12; ++round)
    EXPECT_NO_THROW(read_page(sim, g, kQuietPage, now += 100)) << round;
  try {
    read_page(sim, g, kQuietPage, now += 100);
    ADD_FAILURE() << "round 12 did not report the page";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find(
                  "page " + std::to_string(kWindow12Page) +
                  " routes to retired frame " + std::to_string(frame)),
              std::string::npos)
        << e.what();
  }
}

// The page a retired frame most likely still serves is its identity
// page, so every audit checks those in full: one still routed to its
// frame is reported by the very next audit, 12 rounds before the window
// covering it.
TEST(RasSim, RouteSweepReportsARetiredFramesIdentityPageAtTheNextAudit) {
  MemSimConfig cfg = sim_cfg("Live");
  cfg.audit_interval = 1;
  const Geometry& g = cfg.controller.geom;
  MemSim sim(cfg);
  const PageId frame = kWindow12Page;
  ASSERT_EQ(g.page_of(sim.scheme().translate(g.machine_base(frame)).mach),
            frame);
  ras::RasEngine& ras = *sim.mutable_ras();
  ras.flag_frame_for_test(frame);
  ras.complete_retirement(frame, 0);
  try {
    read_page(sim, g, kQuietPage, 100);
    ADD_FAILURE() << "the first audit did not report the identity page";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find(
                  "page " + std::to_string(frame) +
                  " routes to retired frame " + std::to_string(frame)),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.auditor().audits(), 1u);
}

TEST(RasSim, RasEnabledRunsAreDeterministic) {
  const MemSimConfig cfg = [] {
    MemSimConfig c = sim_cfg("Live");
    c.fault.seed = 5;
    c.fault.add(FaultSite::MediaTransient, 0.005);
    return c;
  }();
  std::vector<std::uint8_t> first;
  for (int i = 0; i < 2; ++i) {
    MemSim sim(cfg);
    auto w = make_pgbench(9);
    sim.run(*w, 20'000);
    snap::Writer wr;
    sim.save(wr);
    if (i == 0)
      first = wr.buffer();
    else
      EXPECT_EQ(wr.buffer(), first);
  }
}

TEST(RasSim, MidRetirementSnapshotRoundTripsByteIdentical) {
  const WorkloadInfo info{"pgbench", "", 0, make_pgbench};
  MemSimConfig cfg = sim_cfg("Live");
  cfg.controller.swap_interval = 500;
  cfg.fault.seed = 21;
  cfg.fault.add(FaultSite::MediaTransient, 0.02)
      .add(FaultSite::MediaStuckAt, 0.004);

  MemSim sim(cfg);
  auto gen = info.make(4242);
  std::uint64_t replayed = 0;
  for (const std::uint64_t k : {997ull, 3001ull, 9001ull}) {
    sim.run_chunk(*gen, k - replayed);
    replayed = k;

    snap::Writer w;
    gen->save(w);
    sim.save(w);

    MemSim fresh(cfg);
    auto fresh_gen = info.make(4242);
    snap::Reader r(w.buffer());
    fresh_gen->restore(r);
    fresh.restore(r);

    snap::Writer w2;
    fresh_gen->save(w2);
    fresh.save(w2);
    ASSERT_EQ(w2.buffer(), w.buffer()) << "diverged at access " << k;
  }
  // The storm actually produced RAS state worth round-tripping.
  EXPECT_GT(sim.ras_engine()->metrics().demand_corrected +
                sim.ras_engine()->metrics().scrub_corrected,
            0u);
}

TEST(RasSim, DroppedFaultEventsAreCounted) {
  MemSimConfig cfg = sim_cfg("Live");
  cfg.fault.add(FaultSite::MediaTransient, 1.0);
  cfg.ras.due_fraction = 0.0;        // corrected errors only
  cfg.ras.ce_retire_threshold = 1u << 30;  // never retire: pure event volume
  MemSim sim(cfg);
  auto w = make_pgbench(7);
  sim.run(*w, 8'000);
  const RunResult r = sim.result();
  EXPECT_GT(r.faults_injected, 4096u);
  EXPECT_GT(r.faults_dropped, 0u);
  EXPECT_EQ(r.fault_events.size(), RunResult::kMaxReportedFaults);
}

TEST(RasSim, CellCodecCarriesRasMetricsAcrossTheForkBoundary) {
  // Process-isolated sweep cells (and journal replay) move RunResult
  // through encode_cell/decode_cell — the RAS block must survive, or
  // `--jobs N` silently zeroes every RAS column of the artifact.
  MemSimConfig cfg = sim_cfg("Live");
  cfg.fault.add(FaultSite::MediaStuckAt, 0.01);
  cfg.fault.add(FaultSite::MediaTransient, 0.05);
  cfg.ras.scrub_interval = 500;
  MemSim sim(cfg);
  auto w = make_pgbench(11);
  sim.run(*w, 6'000);
  runner::CellResult cell;
  cell.key = "codec/ras";
  cell.ok = true;
  cell.status = "ok";
  cell.result = sim.result();
  ASSERT_TRUE(cell.result.ras_enabled);
  ASSERT_GT(cell.result.ras.demand_corrected +
                cell.result.ras.scrub_corrected,
            0u);
  snap::Writer wr;
  runner::encode_cell(wr, cell);
  snap::Reader rd(wr.buffer());
  const runner::CellResult back = runner::decode_cell(rd);
  EXPECT_EQ(back.result.faults_dropped, cell.result.faults_dropped);
  EXPECT_EQ(back.result.ras_enabled, cell.result.ras_enabled);
  EXPECT_EQ(back.result.ras.demand_corrected,
            cell.result.ras.demand_corrected);
  EXPECT_EQ(back.result.ras.demand_uncorrectable,
            cell.result.ras.demand_uncorrectable);
  EXPECT_EQ(back.result.ras.scrub_probes, cell.result.ras.scrub_probes);
  EXPECT_EQ(back.result.ras.stuck_faults, cell.result.ras.stuck_faults);
  EXPECT_EQ(back.result.ras.frames_retired,
            cell.result.ras.frames_retired);
  EXPECT_EQ(back.result.ras.frames_pinned, cell.result.ras.frames_pinned);
  EXPECT_EQ(back.result.ras.spares_used, cell.result.ras.spares_used);
  EXPECT_EQ(back.result.ras_frames_pending,
            cell.result.ras_frames_pending);
  EXPECT_EQ(back.result.ras_spares_left, cell.result.ras_spares_left);
  EXPECT_EQ(back.result.ras_healthy_frames,
            cell.result.ras_healthy_frames);
  EXPECT_EQ(back.result.ras_retirements.size(),
            cell.result.ras_retirements.size());
  for (std::size_t i = 0; i < back.result.ras_retirements.size(); ++i) {
    EXPECT_EQ(back.result.ras_retirements[i].at,
              cell.result.ras_retirements[i].at);
    EXPECT_EQ(back.result.ras_retirements[i].frame,
              cell.result.ras_retirements[i].frame);
  }
}

}  // namespace
}  // namespace hmm
