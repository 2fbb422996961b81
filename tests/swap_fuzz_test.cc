// Property fuzzer: long random sequences of hottest-coldest swaps across
// all designs and several geometries. After every completed swap the
// hardware encoding must agree with the placement shadow map, every page
// must be addressable, and the machine-address mapping must stay a
// bijection (no two pages resolving to the same machine page).
#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "core/migration.hh"
#include "fault/fault_injector.hh"

namespace hmm {
namespace {

struct FuzzParam {
  MigrationDesign design;
  std::uint64_t total;
  std::uint64_t on;
  std::uint64_t page;
};

class SwapFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(SwapFuzz, RandomSwapSequencesPreserveAllInvariants) {
  const FuzzParam fp = GetParam();
  const Geometry g{fp.total, fp.on, fp.page,
                   std::min<std::uint64_t>(fp.page, 64 * KiB)};
  ASSERT_TRUE(g.valid());

  TranslationTable table(g, table_mode(fp.design));
  DramSystem on = DramSystem::make(Region::OnPackage);
  DramSystem off = DramSystem::make(Region::OffPackage);
  MigrationEngine engine(table, on, off, fp.design);

  Pcg32 rng(0xf422ull + fp.page);
  const PageId pages = g.total_pages();
  int completed = 0;

  for (int iter = 0; iter < 300; ++iter) {
    const PageId hot = rng.bounded64(pages);
    const auto cold = static_cast<SlotId>(rng.bounded(g.slots()));
    if (!engine.can_swap(hot, cold)) continue;
    ASSERT_TRUE(engine.start_swap(
        hot, static_cast<std::uint32_t>(rng.bounded(
                 g.sub_blocks_per_page())),
        cold, 0));
    Cycle now = 0;
    drain_regions(
        on, off, Drain::Completely, now, 100000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        [&] { return engine.idle(); });
    ASSERT_TRUE(engine.idle()) << "swap never completed";
    ++completed;

    // Invariant 1: encoding-vs-shadow agreement + structural checks.
    const std::string err = table.validate();
    ASSERT_TRUE(err.empty()) << err << " after swap " << completed;

    // Invariant 2: the physical->machine map is a bijection on pages
    // (Ω may only be home to the current ghost page).
    std::set<PageId> machine_pages;
    for (PageId p = 0; p + 1 < pages; ++p) {
      const Route r = table.translate(g.machine_base(p));
      const PageId mp = r.mach >> g.page_shift();
      ASSERT_LT(mp, pages);
      ASSERT_TRUE(machine_pages.insert(mp).second)
          << "two pages share machine page " << mp << " after swap "
          << completed;
    }

    // Invariant 3: the hot page really is on-package now.
    EXPECT_EQ(table.translate(g.machine_base(hot)).region,
              Region::OnPackage);
  }
  EXPECT_GT(completed, 20);  // the fuzzer exercised real work
}

// gtest names each case after the raw bytes of its parameter, padding
// included. Parameters in static storage have zeroed padding, so the test
// names are the same on every run; stack temporaries (::testing::Values)
// would leak address-dependent garbage into them.
const FuzzParam kGeometries[] = {
    {MigrationDesign::NMinus1, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::NMinus1, 32 * MiB, 4 * MiB, 256 * KiB},
    {MigrationDesign::LiveMigration, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::LiveMigration, 64 * MiB, 16 * MiB, 1 * MiB},
    {MigrationDesign::N, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::N, 32 * MiB, 8 * MiB, 1 * MiB}};

INSTANTIATE_TEST_SUITE_P(DesignsAndGeometries, SwapFuzz,
                         ::testing::ValuesIn(kGeometries));

// Fault-injected fuzz: the same random swap driver, but with the injector
// armed at every migration-path site. The property under test is the
// paper's robustness claim: whatever the injector does, the table must
// hold a valid Fig-8 state after *every* completion batch — the engine
// recovers (retry), rolls back (abort), degrades, or — design N only —
// wedges; it never corrupts the mapping and never spins forever.
class FaultySwapFuzz : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(FaultySwapFuzz, InjectedFaultsNeverCorruptTheTable) {
  const FuzzParam fp = GetParam();
  const Geometry g{fp.total, fp.on, fp.page,
                   std::min<std::uint64_t>(fp.page, 64 * KiB)};
  ASSERT_TRUE(g.valid());

  TranslationTable table(g, table_mode(fp.design));
  DramSystem on = DramSystem::make(Region::OnPackage);
  DramSystem off = DramSystem::make(Region::OffPackage);
  MigrationEngine engine(table, on, off, fp.design);

  // Rates are per *opportunity* (one per chunk completion / DRAM submit);
  // a 512KB page swap is several thousand opportunities, so these small
  // numbers still land multiple faults per run.
  fault::FaultPlan plan;
  plan.seed = 0xab5e + fp.page;
  plan.add(fault::FaultSite::MigrationChunkDrop, 1e-4)
      .add(fault::FaultSite::MigrationChunkDelay, 1e-4)
      .add(fault::FaultSite::ChannelStall, 1e-4)
      .add(fault::FaultSite::SwapAbort, 1e-5);
  fault::FaultInjector injector(plan);
  engine.set_fault_injector(&injector);
  on.set_fault_injector(&injector);
  off.set_fault_injector(&injector);

  Pcg32 rng(0xfa17ull + fp.page);
  const PageId pages = g.total_pages();
  int settled = 0;

  for (int iter = 0; iter < 200 && !engine.wedged(); ++iter) {
    const PageId hot = rng.bounded64(pages);
    const auto cold = static_cast<SlotId>(rng.bounded(g.slots()));
    if (!engine.can_swap(hot, cold)) continue;
    const std::uint64_t completed_before = engine.stats().swaps_completed;
    ASSERT_TRUE(engine.start_swap(
        hot, static_cast<std::uint32_t>(rng.bounded(
                 g.sub_blocks_per_page())),
        cold, 0));
    Cycle now = 0;
    std::string mid;
    drain_regions(
        on, off, Drain::Completely, now, 200000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        [&] {
          // The audit property: valid after every completion batch, even
          // mid-swap (mutations only land on step boundaries).
          mid = table.validate();
          return !mid.empty() || engine.idle() || engine.wedged();
        });
    ASSERT_TRUE(mid.empty()) << mid << " mid-swap, iter " << iter;
    ASSERT_TRUE(engine.idle() || engine.wedged())
        << "engine neither settled nor wedged, iter " << iter;
    ++settled;

    const std::string err = table.validate();
    ASSERT_TRUE(err.empty()) << err << " after iter " << iter;

    std::set<PageId> machine_pages;
    for (PageId p = 0; p + 1 < pages; ++p) {
      const Route r = table.translate(g.machine_base(p));
      const PageId mp = r.mach >> g.page_shift();
      ASSERT_LT(mp, pages);
      ASSERT_TRUE(machine_pages.insert(mp).second)
          << "two pages share machine page " << mp << " after iter " << iter;
    }

    // Only a *completed* swap promises the hot page on-package; aborted
    // and wedged swaps promise only the (already checked) valid mapping.
    if (engine.stats().swaps_completed > completed_before) {
      EXPECT_EQ(table.translate(g.machine_base(hot)).region,
                Region::OnPackage);
    }
  }

  // N-1 and Live always recover, roll back, or degrade — never wedge.
  if (fp.design != MigrationDesign::N) {
    EXPECT_FALSE(engine.wedged());
  }
  EXPECT_GT(settled, 10);  // the fuzzer exercised real work under faults
}

// Static storage for stable test names (see kGeometries).
const FuzzParam kFaultyDesigns[] = {
    {MigrationDesign::NMinus1, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::LiveMigration, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::N, 16 * MiB, 4 * MiB, 512 * KiB}};

INSTANTIATE_TEST_SUITE_P(AllDesigns, FaultySwapFuzz,
                         ::testing::ValuesIn(kFaultyDesigns));

}  // namespace
}  // namespace hmm
