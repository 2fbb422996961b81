// Unit tests for the choreography model checker (src/verify/): the
// shipped designs verify clean, design N's documented stall is reached,
// and — crucially — a deliberately broken choreography is *detected*
// (the checker is not vacuous). The full four-design exhaustive runs
// are registered separately as verify.modelcheck.* ctests.
#include "verify/choreography.hh"

#include <gtest/gtest.h>

#include "common/units.hh"

namespace hmm::verify {
namespace {

CheckerConfig small_config(MigrationDesign d) {
  CheckerConfig cfg;
  cfg.design = d;
  return cfg;  // default geometry: 4 slots x 8 pages x 4 sub-blocks
}

TEST(ChoreographyChecker, NMinus1HoldsAllInvariantsExhaustively) {
  const CheckerReport r = check_choreography(small_config(
      MigrationDesign::NMinus1));
  EXPECT_TRUE(r.ok()) << format_report(r);
  EXPECT_GT(r.states_explored, 10'000u);
  EXPECT_GT(r.in_flight_states, 0u);
  EXPECT_EQ(r.wedge_states, 0u);
  // Aborts that consume the empty slot must land in degraded mode (traffic
  // still served), never a wedge.
  EXPECT_GT(r.degraded_states, 0u);
  EXPECT_GT(r.aborts_injected, 0u);
}

TEST(ChoreographyChecker, DesignNReachesOnlyItsDocumentedStall) {
  const CheckerReport r = check_choreography(small_config(MigrationDesign::N));
  EXPECT_TRUE(r.ok()) << format_report(r);
  EXPECT_GT(r.stall_states, 0u);  // demand held during every swap
  EXPECT_GT(r.wedge_states, 0u);  // every mid-swap crash wedges, as documented
  EXPECT_EQ(r.degraded_states, 0u);
  // Pinned like ReportsAreDeterministic's: the table bytes are the dedup
  // key.
  EXPECT_EQ(r.states_explored, 488880u);
  EXPECT_EQ(r.transitions, 1028160u);
  EXPECT_EQ(r.demand_checks, 141120u);
}

// The table's snapshot bytes are the checker's dedup key, so the counts
// are pinned too: a codec that changes a byte changes the state count.
TEST(ChoreographyChecker, ReportsAreDeterministic) {
  const CheckerConfig cfg = small_config(MigrationDesign::NMinus1);
  const CheckerReport a = check_choreography(cfg);
  const CheckerReport b = check_choreography(cfg);
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.demand_checks, b.demand_checks);
  EXPECT_EQ(a.states_explored, 16169u);
  EXPECT_EQ(a.transitions, 32484u);
  EXPECT_EQ(a.demand_checks, 452732u);
}

TEST(ChoreographyChecker, DetectsMutationsAppliedBeforeTheCopyLands) {
  CheckerConfig cfg = small_config(MigrationDesign::NMinus1);
  cfg.sabotage = Sabotage::ApplyMutationsEarly;
  const CheckerReport r = check_choreography(cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(format_report(r).find("does not hold its data"),
            std::string::npos);
}

TEST(ChoreographyChecker, DetectsADroppedClearPendingMutation) {
  CheckerConfig cfg = small_config(MigrationDesign::NMinus1);
  cfg.sabotage = Sabotage::DropClearPending;
  EXPECT_FALSE(check_choreography(cfg).ok());
}

TEST(ChoreographyChecker, DetectsPrematureFillBitmapMarks) {
  CheckerConfig cfg = small_config(MigrationDesign::LiveMigration);
  cfg.sabotage = Sabotage::MarkSubBlockEarly;
  const CheckerReport r = check_choreography(cfg);
  EXPECT_FALSE(r.ok());
}

CheckerConfig nomad_config() {
  CheckerConfig cfg;
  cfg.design = MigrationDesign::Nomad;
  // 2 slots x 4 pages x 4 sub-blocks: the wandering hole makes the
  // placement count factorial in the page count, so nomad's model stays
  // small (see CheckerConfig::geom).
  cfg.geom.on_package_bytes = 2 * cfg.geom.page_bytes;
  cfg.geom.total_bytes = 4 * cfg.geom.page_bytes;
  return cfg;
}

TEST(ChoreographyChecker, NomadHoldsAllInvariantsExhaustively) {
  const CheckerReport r = check_choreography(nomad_config());
  EXPECT_TRUE(r.ok()) << format_report(r);
  EXPECT_GT(r.states_explored, 1'000u);
  EXPECT_GT(r.in_flight_states, 0u);
  EXPECT_GT(r.swaps_started, 0u);
  // Every crash/abort boundary rolls back transactionally; nomad has no
  // wedge state and the bounded-retry degrade path is runtime-only (the
  // model aborts at every boundary but never consecutively).
  EXPECT_GT(r.aborts_injected, 0u);
  EXPECT_EQ(r.wedge_states, 0u);
  EXPECT_EQ(r.stall_states, 0u);  // the old home serves during the copy
}

TEST(ChoreographyChecker, NomadReportsAreDeterministic) {
  const CheckerReport a = check_choreography(nomad_config());
  const CheckerReport b = check_choreography(nomad_config());
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.demand_checks, b.demand_checks);
  EXPECT_EQ(a.states_explored, 1932u);
  EXPECT_EQ(a.transitions, 7704u);
  EXPECT_EQ(a.demand_checks, 23184u);
}

TEST(ChoreographyChecker, DetectsACommitThatIgnoresDirtySubBlocks) {
  CheckerConfig cfg = nomad_config();
  cfg.sabotage = Sabotage::CommitDespiteDirty;
  const CheckerReport r = check_choreography(cfg);
  EXPECT_FALSE(r.ok());
  // The committed home serves the shadow copy's stale bytes for every
  // sub-block a demand write superseded.
  EXPECT_NE(format_report(r).find("stale bytes"), std::string::npos);
}

TEST(ChoreographyChecker, RefusesAModelTooSmallForEveryFig8Case) {
  CheckerConfig cfg = small_config(MigrationDesign::NMinus1);
  cfg.geom.on_package_bytes = 2 * cfg.geom.page_bytes;  // 2 slots
  cfg.geom.total_bytes = 4 * cfg.geom.page_bytes;
  const CheckerReport r = check_choreography(cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(format_report(r).find(">= 3 on-package slots"),
            std::string::npos);
}

TEST(ChoreographyChecker, StateSpaceCapIsReportedNotSilentlyTruncated) {
  CheckerConfig cfg = small_config(MigrationDesign::NMinus1);
  cfg.max_states = 100;
  const CheckerReport r = check_choreography(cfg);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(format_report(r).find("exhaustiveness"), std::string::npos);
}

}  // namespace
}  // namespace hmm::verify
