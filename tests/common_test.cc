// Unit tests for src/common: units, RNG, statistics, table printing, and
// the reconstructed Table II latency ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "common/params.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "common/units.hh"

namespace hmm {
namespace {

TEST(Units, PowerOfTwoPredicates) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(6));
}

TEST(Units, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4096), 12u);
  EXPECT_EQ(log2_exact(64), 6u);
  EXPECT_EQ(log2_exact(1 * GiB), 30u);
}

// The bit-width forms against the loops they replaced, at the edges of
// every octave and of the 64-bit range.
[[nodiscard]] std::vector<std::uint64_t> octave_edges() {
  std::vector<std::uint64_t> v = {1, 1ull << 63, ~0ull};
  for (unsigned k = 1; k < 64; ++k) {
    v.push_back((1ull << k) - 1);
    v.push_back(1ull << k);
  }
  return v;
}

TEST(Units, Log2FloorMatchesTheShiftLoopAtOctaveEdges) {
  for (const std::uint64_t x : octave_edges()) {
    unsigned n = 0;
    for (std::uint64_t y = x; y >>= 1;) ++n;
    EXPECT_EQ(log2_floor(x), n) << x;
  }
}

TEST(Log2Histogram, BucketMatchesTheDoublingLoopAtOctaveEdges) {
  for (const std::uint64_t x : octave_edges()) {
    unsigned b = 0;
    while ((1ull << (b + 1)) <= x && b + 1 < Log2Histogram::kBuckets) ++b;
    Log2Histogram h;
    h.add(x);
    EXPECT_EQ(h.bucket(b), 1u) << x;
    EXPECT_EQ(h.total(), 1u);
  }
}

// The trace generator's shortcuts draw exactly what the general forms do.
TEST(Pcg32, PowerOfTwoBoundedDrawsWhatTheRejectionLoopDoes) {
  for (const std::uint64_t bound : {2ull, 64ull, 1ull << 20, 1ull << 63}) {
    Pcg32 fast(99), slow(99);
    for (int i = 0; i < 1'000; ++i) {
      const std::uint64_t threshold = (-bound) % bound;
      std::uint64_t want;
      do {
        want = slow.next64();
      } while (want < threshold);
      ASSERT_EQ(fast.bounded64(bound), want % bound) << bound;
    }
  }
}

TEST(Pcg32, GeometricDrawsWhatThePerCallFormulaDoes) {
  for (const double mean : {0.5, 1.0, 4.0, 40.0}) {
    const Geometric draw(mean);
    Pcg32 fast(7), slow(7);
    for (int i = 0; i < 1'000; ++i) {
      std::uint64_t want = 1;
      if (mean > 1.0) {
        double u = slow.uniform();
        if (u <= 0.0) u = 1e-12;
        want = 1 + static_cast<std::uint64_t>(std::log(u) /
                                              std::log(1.0 - 1.0 / mean));
      }
      ASSERT_EQ(draw(fast), want) << mean;
    }
  }
}

TEST(Units, CeilPow2) {
  EXPECT_EQ(ceil_pow2(0), 1ull);
  EXPECT_EQ(ceil_pow2(1), 1ull);
  EXPECT_EQ(ceil_pow2(3), 4ull);
  EXPECT_EQ(ceil_pow2(4), 4ull);
  EXPECT_EQ(ceil_pow2(5), 8ull);
  EXPECT_EQ(ceil_pow2(1025), 2048ull);
}

TEST(Units, DivCeil) {
  EXPECT_EQ(div_ceil(0, 4), 0ull);
  EXPECT_EQ(div_ceil(1, 4), 1ull);
  EXPECT_EQ(div_ceil(4, 4), 1ull);
  EXPECT_EQ(div_ceil(5, 4), 2ull);
}

TEST(Units, FormatSize) {
  EXPECT_EQ(format_size(64), "64B");
  EXPECT_EQ(format_size(4 * KiB), "4KB");
  EXPECT_EQ(format_size(512 * MiB), "512MB");
  EXPECT_EQ(format_size(4 * GiB), "4GB");
  EXPECT_EQ(format_size(3 * KiB / 2), "1536B");
}

TEST(Params, LatencyLedgerReconstruction) {
  // DESIGN.md §2: the ledger must reproduce the paper's totals exactly.
  EXPECT_EQ(params::kOffPackageFixedLatency, 200u);
  EXPECT_EQ(params::kOnPackageFixedLatency, 70u);
  EXPECT_EQ(params::kL4HitLatency, 140u);
  EXPECT_EQ(params::kL4MissDetermination, 70u);
  EXPECT_EQ(params::kOffPackageWireOverhead, 34u);
  EXPECT_EQ(params::kOnPackageWireOverhead, 20u);
}

TEST(Pcg32, Deterministic) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, DifferentSeedsDiverge) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Pcg32, BoundedRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.bounded(17), 17u);
    EXPECT_LT(rng.bounded64(1ull << 40), 1ull << 40);
  }
}

TEST(Pcg32, BoundedCoversAllResidues) {
  Pcg32 rng(9);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Pcg32, UniformInUnitInterval) {
  Pcg32 rng(5);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Pcg32, GeometricMean) {
  Pcg32 rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i)
    sum += static_cast<double>(rng.geometric(40.0));
  EXPECT_NEAR(sum / n, 40.0, 1.5);
}

TEST(Pcg32, GeometricDegenerate) {
  Pcg32 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 1ull);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(0.5), 1ull);
}

TEST(RunningStat, Basics) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(RunningStat, Weighted) {
  RunningStat s;
  s.add(10.0, 3);
  s.add(20.0, 1);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 12.5);
}

TEST(RunningStat, Merge) {
  RunningStat a, b;
  a.add(1.0);
  a.add(3.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(RunningStat, Reset) {
  RunningStat s;
  s.add(42.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Log2Histogram, BucketsAndQuantiles) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(1);
  for (int i = 0; i < 10; ++i) h.add(1000);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.quantile(0.5), 1ull);
  // The top decile lands in the 512..1024 bucket.
  EXPECT_EQ(h.quantile(0.95), 512ull);
}

TEST(Log2Histogram, ZeroValue) {
  Log2Histogram h;
  h.add(0);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.quantile(0.5), 1ull);
}

TEST(Log2Histogram, MergeMatchesInterleavedAdds) {
  // Merging per-shard histograms must equal one histogram fed everything —
  // the property the parallel runner's aggregation relies on.
  Log2Histogram a, b, reference;
  for (int i = 0; i < 90; ++i) {
    a.add(1);
    reference.add(1);
  }
  for (int i = 0; i < 10; ++i) {
    b.add(1000);
    reference.add(1000);
  }
  b.add(0);
  reference.add(0);
  a.merge(b);
  EXPECT_EQ(a.total(), reference.total());
  for (unsigned i = 0; i < Log2Histogram::kBuckets; ++i) {
    EXPECT_EQ(a.bucket(i), reference.bucket(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.quantile(0.5), reference.quantile(0.5));
  EXPECT_EQ(a.quantile(0.95), reference.quantile(0.95));
}

TEST(Log2Histogram, MergeWithEmptyIsIdentity) {
  Log2Histogram a, empty;
  a.add(7);
  a.merge(empty);
  EXPECT_EQ(a.total(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.total(), 1u);
  EXPECT_EQ(empty.quantile(0.5), 4ull);  // 7 lands in the 4..8 bucket
}

TEST(RunningStat, MergeWithEmptyKeepsMinMax) {
  RunningStat a, empty;
  a.add(-2.0);
  a.add(9.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), -2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.min(), -2.0);
  EXPECT_DOUBLE_EQ(empty.max(), 9.0);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"x", "1"});
  t.add_row({"yy"});  // short row is padded
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a  | long-header |"), std::string::npos);
  EXPECT_NE(out.find("| x  | 1           |"), std::string::npos);
  EXPECT_NE(out.find("| yy |"), std::string::npos);
}

TEST(TextTable, NumberHelpers) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.831), "83.1%");
}

TEST(Types, RegionNames) {
  EXPECT_STREQ(to_string(Region::OnPackage), "on-package");
  EXPECT_STREQ(to_string(Region::OffPackage), "off-package");
  EXPECT_STREQ(to_string(AccessType::Read), "read");
  EXPECT_STREQ(to_string(AccessType::Write), "write");
}

}  // namespace
}  // namespace hmm
