// Translation-table tests: the RAM/CAM encoding rules, the P (pending)
// and F (filling) bit routing, categories, and the structural invariants.
#include <gtest/gtest.h>

#include "core/translation_table.hh"

namespace hmm {
namespace {

// 16MB space, 4MB on-package, 512KB macro pages: N = 8 slots, 32 pages,
// Ω = page 31.
Geometry small_geom() {
  return Geometry{16 * MiB, 4 * MiB, 512 * KiB, 64 * KiB};
}

TEST(Geometry, DerivedQuantities) {
  const Geometry g = small_geom();
  ASSERT_TRUE(g.valid());
  EXPECT_EQ(g.slots(), 8u);
  EXPECT_EQ(g.total_pages(), 32u);
  EXPECT_EQ(g.omega(), 31u);
  EXPECT_EQ(g.sub_blocks_per_page(), 8u);
  EXPECT_EQ(g.page_of(512 * KiB + 5), 1u);
  EXPECT_EQ(g.offset_of(512 * KiB + 5), 5u);
  EXPECT_EQ(g.region_of(0), Region::OnPackage);
  EXPECT_EQ(g.region_of(4 * MiB), Region::OffPackage);
}

TEST(Geometry, ValidityChecks) {
  Geometry g = small_geom();
  g.page_bytes = 3 * MiB;  // not a power of two
  EXPECT_FALSE(g.valid());
  g = small_geom();
  g.on_package_bytes = g.total_bytes;  // no off-package region
  EXPECT_FALSE(g.valid());
}

TEST(TranslationTable, InitialStateMapsLowPagesOnPackage) {
  TranslationTable t(small_geom(), TableMode::HardwareNMinus1);
  // Pages 0..6 are Original Fast; page 7 (last slot) starts as the Ghost.
  for (PageId p = 0; p < 7; ++p) {
    const Route r = t.translate(p * 512 * KiB + 100);
    EXPECT_EQ(r.region, Region::OnPackage);
    EXPECT_EQ(r.mach, p * 512 * KiB + 100);
    EXPECT_EQ(t.category(p), PageCategory::OriginalFast);
  }
  EXPECT_EQ(t.category(7), PageCategory::Ghost);
  EXPECT_EQ(t.translate(7 * 512 * KiB).mach, 31ull * 512 * KiB);  // Ω
  EXPECT_EQ(t.empty_slot().value(), 7u);
  // Off-package pages are Original Slow at their homes.
  const Route r = t.translate(20 * 512 * KiB + 8);
  EXPECT_EQ(r.region, Region::OffPackage);
  EXPECT_EQ(r.mach, 20 * 512 * KiB + 8);
  EXPECT_EQ(t.category(20), PageCategory::OriginalSlow);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(TranslationTable, CamFindsMigratedFastPage) {
  TranslationTable t(small_geom(), TableMode::HardwareNMinus1);
  t.set_row(7, 20);           // page 20 now occupies slot 7
  t.note_data_at(20, 7);
  t.set_pending(7, true);     // mid-swap: page 7's data still at Ω
  EXPECT_EQ(t.category(20), PageCategory::MigratedFast);
  EXPECT_EQ(t.translate(20 * 512 * KiB + 64).mach, 7ull * 512 * KiB + 64);
  // Row 7 pending: its left page routes to Ω.
  EXPECT_EQ(t.translate(7 * 512 * KiB).mach, 31ull * 512 * KiB);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  // Swap completes: ghost page 7 lands at page 20's home.
  t.note_data_at(7, 20);
  t.set_pending(7, false);
  EXPECT_EQ(t.translate(7 * 512 * KiB + 3).mach, 20ull * 512 * KiB + 3);
  EXPECT_EQ(t.category(7), PageCategory::MigratedSlow);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(TranslationTable, PairwiseEncodingRoundTrips) {
  // After a full swap (page 20 <-> slot 7's page), both directions of the
  // encoding agree with the placement map.
  TranslationTable t(small_geom(), TableMode::HardwareNMinus1);
  t.set_row(7, 20);
  t.note_data_at(20, 7);
  t.note_data_at(7, 20);
  EXPECT_EQ(t.location_of(20), 7ull * 512 * KiB);
  EXPECT_EQ(t.location_of(7), 20ull * 512 * KiB);
  EXPECT_EQ(t.occupant(7), 20u);
  EXPECT_FALSE(t.empty_slot().has_value());
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(TranslationTable, FillBitmapRoutesSubBlocks) {
  TranslationTable t(small_geom(), TableMode::HardwareNMinus1);
  // Page 20 is filling slot 7; old data at its home.
  t.set_row(7, 20);
  t.begin_fill(7, 20, 20 * 512 * KiB);
  t.mark_sub_block(2);

  const PhysAddr in_sb2 = 20 * 512 * KiB + 2 * 64 * KiB + 17;
  const PhysAddr in_sb3 = 20 * 512 * KiB + 3 * 64 * KiB + 17;
  const Route ready = t.translate(in_sb2);
  EXPECT_EQ(ready.region, Region::OnPackage);
  EXPECT_TRUE(ready.served_by_fill_slot);
  EXPECT_EQ(ready.mach, 7ull * 512 * KiB + 2 * 64 * KiB + 17);
  const Route not_ready = t.translate(in_sb3);
  EXPECT_EQ(not_ready.region, Region::OffPackage);
  EXPECT_EQ(not_ready.mach, in_sb3);

  // Completing the fill hands routing over to the CAM.
  for (std::uint32_t sb = 0; sb < 8; ++sb) t.mark_sub_block(sb);
  t.end_fill();
  t.note_data_at(20, 7);
  EXPECT_EQ(t.translate(in_sb3).region, Region::OnPackage);
}

TEST(TranslationTable, SetRowEmptyMakesGhost) {
  TranslationTable t(small_geom(), TableMode::HardwareNMinus1);
  t.set_row(7, 7);  // refill the initial ghost's slot
  t.note_data_at(7, 7);
  t.set_row_empty(3);
  t.note_data_at(3, small_geom().omega());
  EXPECT_EQ(t.empty_slot().value(), 3u);
  EXPECT_EQ(t.category(3), PageCategory::Ghost);
  EXPECT_EQ(t.translate(3 * 512 * KiB).mach, 31ull * 512 * KiB);
  EXPECT_TRUE(t.validate().empty()) << t.validate();
}

TEST(TranslationTable, ValidateCatchesBrokenEncoding) {
  TranslationTable t(small_geom(), TableMode::HardwareNMinus1);
  t.set_row(2, 20);  // claims page 20 is in slot 2...
  // ...but the placement map still says page 20 is at home: mismatch.
  EXPECT_FALSE(t.validate().empty());
}

TEST(TranslationTable, FunctionalModeUsesPlacementMap) {
  TranslationTable t(small_geom(), TableMode::FunctionalN);
  EXPECT_FALSE(t.empty_slot().has_value());
  t.note_data_at(20, 3);
  t.note_data_at(3, 20);
  t.set_occupant(3, 20);
  EXPECT_EQ(t.translate(20 * 512 * KiB).mach, 3ull * 512 * KiB);
  EXPECT_EQ(t.translate(3 * 512 * KiB).mach, 20ull * 512 * KiB);
  EXPECT_EQ(t.category(20), PageCategory::MigratedFast);
  EXPECT_EQ(t.category(3), PageCategory::MigratedSlow);
  EXPECT_TRUE(t.validate().empty());
}

}  // namespace
}  // namespace hmm
