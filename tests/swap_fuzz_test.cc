// Property fuzzer: long random sequences of hottest-coldest swaps (nomad:
// transactions into the hole) across all designs and several geometries.
// After every completed swap the hardware encoding must agree with the
// placement shadow map, every page must be addressable, and the
// machine-address mapping must stay a bijection (no two pages resolving
// to the same machine page); after every completion batch page_at() must
// invert the placement.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

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

/// For every machine page m, page_at(m) must be the one page p < Ω whose
/// data lives at m, or kInvalidPage when there is none. Returns the first
/// disagreement, or an empty string.
[[nodiscard]] std::string page_at_error(const TranslationTable& t) {
  const Geometry& g = t.geometry();
  std::vector<PageId> want(g.total_pages(), kInvalidPage);
  for (PageId p = 0; p < g.omega(); ++p) {
    const PageId m = g.page_of(t.location_of(p));
    if (want[m] != kInvalidPage)
      return "pages " + std::to_string(want[m]) + " and " +
             std::to_string(p) + " share machine page " + std::to_string(m);
    want[m] = p;
  }
  for (PageId m = 0; m < g.total_pages(); ++m)
    if (t.page_at(m) != want[m])
      return "page_at(" + std::to_string(m) + ") is " +
             std::to_string(t.page_at(m)) + ", the placement says " +
             std::to_string(want[m]);
  return {};
}

/// Starts one random move: a swap of `hot` with slot `cold`, or for nomad
/// a transaction moving `hot` into the hole. False when the engine
/// refuses; the sub-block is drawn only for a swap it accepts.
bool start(MigrationEngine& engine, const Geometry& g, Pcg32& rng,
           PageId hot, SlotId cold) {
  if (engine.design() == MigrationDesign::Nomad)
    return engine.start_migration(hot, 0);
  if (!engine.can_swap(hot, cold)) return false;
  const auto sb =
      static_cast<std::uint32_t>(rng.bounded(g.sub_blocks_per_page()));
  EXPECT_TRUE(engine.start_swap(hot, sb, cold, 0));
  return true;
}

/// Where a finished move promises `hot`: on-package after a swap, at the
/// hole `dst` it was streamed into after a nomad commit.
void expect_moved(const TranslationTable& t, MigrationDesign d, PageId hot,
                  PageId dst) {
  const Geometry& g = t.geometry();
  if (d == MigrationDesign::Nomad)
    EXPECT_EQ(t.location_of(hot), g.machine_base(dst));
  else
    EXPECT_EQ(t.translate(g.machine_base(hot)).region, Region::OnPackage);
}

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
    const PageId hole = table.hole();
    if (!start(engine, g, rng, hot, cold)) continue;
    Cycle now = 0;
    std::string mid;
    drain_regions(
        on, off, Drain::Completely, now, 100000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        [&] {
          mid = page_at_error(table);
          return !mid.empty() || engine.idle();
        });
    ASSERT_TRUE(mid.empty()) << mid << " in swap " << completed + 1;
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

    // Invariant 3: the hot page really moved.
    expect_moved(table, fp.design, hot, hole);
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
    {MigrationDesign::N, 32 * MiB, 8 * MiB, 1 * MiB},
    {MigrationDesign::Nomad, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::Nomad, 32 * MiB, 8 * MiB, 1 * MiB}};

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
    const PageId hole = table.hole();
    const std::uint64_t completed_before = engine.stats().swaps_completed;
    if (!start(engine, g, rng, hot, cold)) continue;
    Cycle now = 0;
    std::string mid;
    drain_regions(
        on, off, Drain::Completely, now, 200000,
        [&](const DramCompletion& c, Region r) { engine.on_completion(c, r); },
        [&] {
          // The audit property: valid after every completion batch, even
          // mid-swap (mutations only land on step boundaries).
          mid = table.validate();
          if (mid.empty()) mid = page_at_error(table);
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

    // Only a *completed* swap promises the hot page moved; aborted and
    // wedged swaps promise only the (already checked) valid mapping.
    if (engine.stats().swaps_completed > completed_before)
      expect_moved(table, fp.design, hot, hole);
  }

  // N-1, Live and nomad always recover, roll back, or degrade — never
  // wedge.
  if (fp.design != MigrationDesign::N) {
    EXPECT_FALSE(engine.wedged());
  }
  EXPECT_GT(settled, 10);  // the fuzzer exercised real work under faults
}

// Static storage for stable test names (see kGeometries).
const FuzzParam kFaultyDesigns[] = {
    {MigrationDesign::NMinus1, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::LiveMigration, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::N, 16 * MiB, 4 * MiB, 512 * KiB},
    {MigrationDesign::Nomad, 16 * MiB, 4 * MiB, 512 * KiB}};

INSTANTIATE_TEST_SUITE_P(AllDesigns, FaultySwapFuzz,
                         ::testing::ValuesIn(kFaultyDesigns));

}  // namespace
}  // namespace hmm
