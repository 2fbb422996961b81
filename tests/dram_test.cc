// DRAM substrate tests: address mapping, bank timing, FR-FCFS scheduling,
// bus reservation, background-priority behaviour, and queueing scaling.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/random.hh"
#include "dram/dram_system.hh"

namespace hmm {
namespace {

DramTiming off_timing() { return DramTiming::off_package_ddr3_1333(); }
DramTiming on_timing() { return DramTiming::on_package_sip(); }

TEST(AddressMapping, DecodeIsInjectivePerLine) {
  const AddressMapping map(4, off_timing());
  std::set<std::tuple<unsigned, unsigned, std::uint64_t, std::uint64_t>> seen;
  Pcg32 rng(1);
  for (int i = 0; i < 20000; ++i) {
    const MachAddr a = rng.bounded64(1ull << 32) & ~63ull;
    const DramCoordinates c = map.decode(a);
    EXPECT_LT(c.channel, 4u);
    EXPECT_LT(c.bank, off_timing().banks);
    seen.insert({c.channel, c.bank, c.row, c.column});
  }
  // Distinct lines decode to distinct coordinates (bijectivity sample).
  std::set<MachAddr> lines;
  Pcg32 rng2(1);
  for (int i = 0; i < 20000; ++i)
    lines.insert(rng2.bounded64(1ull << 32) & ~63ull);
  EXPECT_EQ(seen.size(), lines.size());
}

TEST(AddressMapping, SequentialLinesRotateChannels) {
  const AddressMapping map(4, off_timing());
  std::set<unsigned> channels;
  for (MachAddr a = 0; a < 64 * 8; a += 64)
    channels.insert(map.decode(a).channel);
  EXPECT_EQ(channels.size(), 4u);
}

TEST(AddressMapping, SequentialLinesShareRow) {
  // Lines within one row-bank span keep the same row (open-page locality).
  const AddressMapping map(1, on_timing());
  const DramCoordinates c0 = map.decode(0);
  const DramCoordinates c1 = map.decode(64);
  EXPECT_EQ(c0.row, c1.row);
}

TEST(AddressMapping, XorFoldSpreadsPowerOfTwoStrides) {
  const AddressMapping map(1, on_timing());
  std::set<unsigned> banks;
  // 896MB-aligned bases used to collide on one bank without folding.
  for (int j = 0; j < 8; ++j)
    banks.insert(map.decode(static_cast<MachAddr>(j) * 896 * MiB).bank);
  EXPECT_GE(banks.size(), 6u);
}

TEST(AddressMapping, NoFoldKeepsPlainDecode) {
  const AddressMapping map(1, on_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, /*xor_fold=*/false);
  EXPECT_EQ(map.decode(0).bank, 0u);
  EXPECT_EQ(map.decode(0).channel, 0u);
}

TEST(DramChannel, RowHitIsFasterThanConflict) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map);

  auto serve = [&](MachAddr addr, Cycle at) {
    DramRequest r;
    r.addr = addr;
    r.arrival = at;
    ch.submit(r);
    ch.drain_all(at);
    const auto done = ch.take_completions();
    EXPECT_EQ(done.size(), 1u);
    return done[0];
  };

  const DramCompletion first = serve(0, 0);        // cold activate
  const DramCompletion hit = serve(64, 100000);    // same row
  const DramCompletion conflict =
      serve(1ull << 22, 200000);                   // same bank, other row
  EXPECT_TRUE(hit.row_hit);
  EXPECT_FALSE(first.row_hit);
  EXPECT_FALSE(conflict.row_hit);
  EXPECT_LT(hit.finish - hit.arrival, first.finish - first.arrival);
  EXPECT_LT(first.finish - first.arrival, conflict.finish - conflict.arrival);
}

TEST(DramChannel, FrFcfsPrefersRowHit) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map);
  // Open row 0 in bank 0.
  DramRequest warm;
  warm.addr = 0;
  warm.arrival = 0;
  ch.submit(warm);
  ch.drain_all(0);
  (void)ch.take_completions();

  // Conflict request arrives first, row hit second; FR-FCFS serves the
  // hit first.
  DramRequest miss;
  miss.addr = 1ull << 22;  // bank 0, different row
  miss.arrival = 1000;
  DramRequest hit;
  hit.addr = 128;  // bank 0, row 0
  hit.arrival = 1000;
  ch.submit(miss);
  ch.submit(hit);
  ch.drain_all(1001);
  const auto done = ch.take_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].row_hit);
  EXPECT_LT(done[0].finish, done[1].finish);
}

TEST(DramChannel, FcfsServesInOrder) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map, SchedulerPolicy::Fcfs);
  DramRequest warm;
  warm.addr = 0;
  warm.arrival = 0;
  ch.submit(warm);
  ch.drain_all(0);
  (void)ch.take_completions();

  DramRequest miss;
  miss.addr = 1ull << 22;
  miss.arrival = 1000;
  DramRequest hit;
  hit.addr = 128;
  hit.arrival = 1001;
  ch.submit(miss);
  ch.submit(hit);
  ch.drain_all(1001);
  const auto done = ch.take_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_FALSE(done[0].row_hit);  // the older conflict goes first
}

TEST(DramChannel, StarvationControlBoundsBypass) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map);
  DramRequest warm;
  warm.addr = 0;
  warm.arrival = 0;
  ch.submit(warm);
  ch.drain_all(0);
  (void)ch.take_completions();

  // One conflict request plus a long run of row hits arriving later; the
  // conflict must still be served within the starvation window.
  DramRequest miss;
  miss.addr = 1ull << 22;
  miss.arrival = 100;
  ch.submit(miss);
  for (int i = 1; i <= 50; ++i) {
    DramRequest hit;
    hit.addr = static_cast<MachAddr>(64 * i);
    hit.arrival = 100 + static_cast<Cycle>(i);
    ch.submit(hit);
  }
  ch.drain_all(200);
  const auto done = ch.take_completions();
  Cycle miss_start = 0;
  for (const auto& c : done)
    if (!c.row_hit) miss_start = c.start;
  EXPECT_GT(miss_start, 0u);
  EXPECT_LT(miss_start, 100 + 2000u);
}

TEST(DramChannel, BackgroundYieldsToDemand) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map);
  DramRequest bg;
  bg.addr = 1 * MiB;
  bg.priority = Priority::Background;
  bg.arrival = 0;
  DramRequest fg;
  fg.addr = 2 * MiB;
  fg.priority = Priority::Demand;
  fg.arrival = 0;
  ch.submit(bg);
  ch.submit(fg);
  ch.drain_all(0);
  const auto done = ch.take_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].priority, Priority::Demand);
}

TEST(DramChannel, StreamingChunkOccupiesBusProportionally) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map);
  DramRequest chunk;
  chunk.addr = 0;
  chunk.bytes = 4096;  // 64 bursts
  chunk.arrival = 0;
  ch.submit(chunk);
  ch.drain_all(0);
  const auto done = ch.take_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_GE(done[0].finish - done[0].start,
            off_timing().tBurst * (4096 / 64));
}

TEST(DramSystem, RoutesToDecodedChannel) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  Pcg32 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const MachAddr a = rng.bounded64(1ull << 31);
    sys.submit(a, 64, AccessType::Read, Priority::Demand, 0);
  }
  sys.drain_all(0);
  std::size_t served = 0;
  for (unsigned c = 0; c < sys.num_channels(); ++c) {
    const auto& ch = sys.channel(c);
    served += ch.row_hits() + ch.row_misses();
    EXPECT_GT(ch.row_hits() + ch.row_misses(), 100u);  // roughly balanced
  }
  EXPECT_EQ(served, 1000u);
}

TEST(DramSystem, ChannelHintOverridesRouting) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  for (int i = 0; i < 64; ++i)
    sys.submit(static_cast<MachAddr>(i) * 4096, 64, AccessType::Read,
               Priority::Demand, 0, /*channel_hint=*/2);
  sys.drain_all(0);
  EXPECT_EQ(sys.channel(2).row_hits() + sys.channel(2).row_misses(), 64u);
}

TEST(DramSystem, ManyBanksQueueLessThanFewBanks) {
  // The paper's claim: under random load, the 128-bank on-package DRAM has
  // far less queueing than the 8-bank-per-channel off-package DRAM at the
  // same per-channel pressure.
  DramSystem off(Region::OffPackage, DramTiming::off_package_ddr3_1333(), 1,
                 SchedulerPolicy::FrFcfs);
  DramSystem on(Region::OnPackage, DramTiming::on_package_sip(), 1,
                SchedulerPolicy::FrFcfs);
  Pcg32 rng(5);
  Cycle now = 0;
  for (int i = 0; i < 20000; ++i) {
    const MachAddr a = rng.bounded64(1ull << 30);
    off.submit(a, 64, AccessType::Read, Priority::Demand, now);
    on.submit(a, 64, AccessType::Read, Priority::Demand, now);
    now += 30;
    off.drain_until(now);
    on.drain_until(now);
    (void)off.take_completions();
    (void)on.take_completions();
  }
  EXPECT_LT(on.mean_queue_delay(), off.mean_queue_delay());
}

TEST(DramSystem, WireOverheadMatchesLedger) {
  EXPECT_EQ(DramSystem::make(Region::OnPackage).wire_overhead(), 20u);
  EXPECT_EQ(DramSystem::make(Region::OffPackage).wire_overhead(), 34u);
}

TEST(DramSystem, StatsResetClearsCounters) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  sys.submit(0, 64, AccessType::Read, Priority::Demand, 0);
  sys.drain_all(0);
  (void)sys.take_completions();
  EXPECT_GT(sys.demand_bytes(), 0u);
  sys.reset_stats();
  EXPECT_EQ(sys.demand_bytes(), 0u);
  EXPECT_EQ(sys.background_bytes(), 0u);
}

// The region's "nothing due" bound must never skip work that is due: a
// request arriving in the future on one channel, the other three idle,
// issues at exactly its arrival, even after an earlier request on another
// channel moved the bound.
TEST(DramSystem, FutureArrivalIssuesExactlyAtItsArrival) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  ASSERT_EQ(sys.num_channels(), 4u);
  sys.submit(0, 64, AccessType::Read, Priority::Demand, 100,
             /*channel_hint=*/1);
  sys.submit(0, 64, AccessType::Read, Priority::Demand, 5000,
             /*channel_hint=*/3);
  sys.drain_until(100);
  ASSERT_EQ(sys.take_completions().size(), 1u);
  sys.drain_until(4999);
  EXPECT_TRUE(sys.take_completions().empty());
  EXPECT_EQ(sys.backlog(), 1u);
  sys.drain_until(5000);
  const auto done = sys.take_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].start, 5000 + off_timing().tRCD);  // ACT at arrival
  EXPECT_EQ(sys.backlog(), 0u);
}

// Queued future requests and pending completions survive save/restore: the
// restored system (its cached earliest arrivals and due bound rebuilt)
// yields the same completion stream as the original.
TEST(DramSystem, RestoredQueueYieldsTheSameCompletionStream) {
  DramSystem a = DramSystem::make(Region::OffPackage);
  Pcg32 rng(7);
  for (int i = 0; i < 64; ++i)
    a.submit(rng.bounded64(1ull << 30), i % 8 == 0 ? 4096 : 64,
             i % 3 == 0 ? AccessType::Write : AccessType::Read,
             i % 4 == 0 ? Priority::Background : Priority::Demand,
             1000 + 50 * static_cast<Cycle>(i));
  a.drain_until(1500);
  snap::Writer w;
  a.save(w);
  DramSystem b = DramSystem::make(Region::OffPackage);
  snap::Reader r(w.buffer());
  b.restore(r);
  ASSERT_EQ(b.backlog(), a.backlog());
  ASSERT_GT(b.backlog(), 0u);
  std::size_t seen = 0;
  for (Cycle now = 1500; now <= 20000; now += 250) {
    a.drain_until(now);
    b.drain_until(now);
    const auto x = a.take_completions();
    const auto y = b.take_completions();
    ASSERT_EQ(x.size(), y.size()) << "at cycle " << now;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].id, y[i].id);
      EXPECT_EQ(x[i].start, y[i].start);
      EXPECT_EQ(x[i].finish, y[i].finish);
    }
    seen += x.size();
  }
  EXPECT_EQ(seen, 64u);
}

// A background completion submits the next copy chunk while the caller is
// still walking the completions: the view must keep its contents.
TEST(DramSystem, CompletionSpanSurvivesSubmitDuringDelivery) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  for (int i = 0; i < 8; ++i)  // consecutive lines rotate channels
    sys.submit(static_cast<MachAddr>(i) * 64, 64, AccessType::Read,
               Priority::Demand, 0);
  sys.drain_all(0);
  const auto done = sys.take_completions();
  ASSERT_EQ(done.size(), 8u);
  const std::vector<DramCompletion> copy(done.begin(), done.end());
  std::size_t i = 0;
  for (const DramCompletion& c : done) {
    for (int k = 0; k < 64; ++k)
      sys.submit(static_cast<MachAddr>(k) * 4096, 4096, AccessType::Write,
                 Priority::Background, c.finish);
    EXPECT_EQ(c.id, copy[i].id);
    EXPECT_EQ(c.finish, copy[i].finish);
    ++i;
  }
}

// Demand latency bookkeeping rides in the request: `issued` and the access
// type survive a channel snapshot, in the queue and in a pending
// completion alike.
TEST(DramChannel, IssuedAndTypeRoundTripThroughSnapshot) {
  const AddressMapping map(1, off_timing(),
                           AddressMapping::Scheme::RowBankColChan,
                           64, false);
  DramChannel ch(off_timing(), map);
  DramRequest wr;
  wr.type = AccessType::Write;
  wr.arrival = 900;
  wr.issued = 700;
  DramRequest rd;
  rd.addr = 1ull << 22;
  rd.arrival = 5000;
  rd.issued = 4321;
  ch.submit(wr);
  ch.submit(rd);
  ch.drain_until(1000);  // wr completes, rd stays queued
  snap::Writer w;
  ch.save(w);

  DramChannel back(off_timing(), map);
  snap::Reader r(w.buffer());
  back.restore(r);
  auto done = back.take_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].issued, 700u);
  EXPECT_EQ(done[0].type, AccessType::Write);
  back.drain_all(0);
  done = back.take_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].issued, 4321u);
  EXPECT_EQ(done[0].type, AccessType::Read);
  EXPECT_GE(done[0].start, 5000u);
}

// The scheduler ablation, falsifiable: 64 + 64 reads to two rows of one
// off-package bank, interleaved and all arriving at cycle 0. FR-FCFS
// serves each row's hits back to back; FCFS reopens a row per request.
[[nodiscard]] Cycle two_row_burst_cycles(SchedulerPolicy policy) {
  DramSystem sys = DramSystem::make(Region::OffPackage, policy);
  const AddressMapping map(sys.num_channels(), sys.timing());
  const DramCoordinates home = map.decode(0);
  std::vector<MachAddr> rows[2];
  std::uint64_t other_row = 0;
  for (MachAddr a = 0; rows[1].size() < 64 && a < 1 * GiB; a += 64) {
    const DramCoordinates c = map.decode(a);
    if (c.channel != home.channel || c.bank != home.bank) continue;
    if (c.row == home.row) {
      if (rows[0].size() < 64) rows[0].push_back(a);
    } else if (rows[1].empty() || c.row == other_row) {
      other_row = c.row;
      rows[1].push_back(a);
    }
  }
  EXPECT_EQ(rows[0].size(), 64u);
  EXPECT_EQ(rows[1].size(), 64u);
  for (std::size_t i = 0; i < rows[0].size() && i < rows[1].size(); ++i)
    for (const auto& row : rows)
      sys.submit(row[i], 64, AccessType::Read, Priority::Demand, 0);
  return sys.drain_all(0);
}

TEST(DramSystem, FrFcfsBeatsFcfsOnTwoRowBurst) {
  EXPECT_LT(two_row_burst_cycles(SchedulerPolicy::FrFcfs),
            two_row_burst_cycles(SchedulerPolicy::Fcfs));
}

// drain_regions() over the paper's two regions. `chain(hops)` records
// each delivery; the first `hops - 1` submit the next hop to the other
// region at their finish, as a swap's copy chunks do.
struct TwoRegions {
  DramSystem on = DramSystem::make(Region::OnPackage);
  DramSystem off = DramSystem::make(Region::OffPackage);
  Cycle now = 0;
  std::vector<Region> got;  ///< each delivery's region, in order
  Cycle last_finish = 0;

  void read(Region r, Cycle arrival) {
    (r == Region::OnPackage ? on : off)
        .submit(0, 64, AccessType::Read, Priority::Demand, arrival);
  }
  auto chain(std::size_t hops) {
    return [this, hops](const DramCompletion& c, Region r) {
      got.push_back(r);
      last_finish = std::max(last_finish, c.finish);
      if (got.size() < hops)
        read(r == Region::OnPackage ? Region::OffPackage : Region::OnPackage,
             c.finish);
    };
  }
  template <class Stop = NeverStop>
  DrainEnd drain(Drain how, unsigned rounds, std::size_t hops, Stop stop = {}) {
    return drain_regions(on, off, how, now, rounds, chain(hops), stop);
  }
};

TEST(DrainRegions, DeliversOnPackageFirstAndMovesNowToTheLastFinish) {
  TwoRegions s;
  s.read(Region::OffPackage, 0);
  s.read(Region::OnPackage, 0);
  EXPECT_EQ(s.drain(Drain::Completely, 10, 1), DrainEnd::Quiet);
  EXPECT_EQ(s.got, (std::vector{Region::OnPackage, Region::OffPackage}));
  EXPECT_GT(s.now, 0u);
  EXPECT_EQ(s.now, s.last_finish);
}

TEST(DrainRegions, ThroughLeavesLaterArrivalsQueuedAndNowInPlace) {
  TwoRegions s;
  s.read(Region::OffPackage, 100);
  s.read(Region::OffPackage, 50'000);
  s.now = 10'000;
  EXPECT_EQ(s.drain(Drain::Through, 10, 1), DrainEnd::Quiet);
  EXPECT_EQ(s.got.size(), 1u);
  EXPECT_EQ(s.now, 10'000u);
  EXPECT_EQ(s.off.backlog(), 1u);
}

// Five hops take five delivering rounds and a sixth, quiet one.
TEST(DrainRegions, FollowsSubmissionsMadeDuringDeliveryToAFixedPoint) {
  TwoRegions s;
  s.read(Region::OnPackage, 0);
  EXPECT_EQ(s.drain(Drain::Completely, 6, 5), DrainEnd::Quiet);
  const Region on = Region::OnPackage, off = Region::OffPackage;
  EXPECT_EQ(s.got, (std::vector{on, off, on, off, on}));
  EXPECT_EQ(s.now, s.last_finish);
  EXPECT_EQ(s.on.backlog() + s.off.backlog(), 0u);
}

TEST(DrainRegions, RoundBoundEndsAnUnfinishedChain) {
  TwoRegions s;
  s.read(Region::OnPackage, 0);
  EXPECT_EQ(s.drain(Drain::Completely, 3, 5), DrainEnd::OutOfRounds);
  EXPECT_EQ(s.got.size(), 3u);
  EXPECT_EQ(s.off.backlog(), 1u);  // the fourth hop, never drained
}

// stop() is asked before every round, the first one included.
TEST(DrainRegions, StopIsAskedBeforeEveryRound) {
  TwoRegions s;
  s.read(Region::OnPackage, 0);
  EXPECT_EQ(s.drain(Drain::Completely, 10, 5, [] { return true; }),
            DrainEnd::Stopped);
  EXPECT_TRUE(s.got.empty());
  EXPECT_EQ(s.now, 0u);
  EXPECT_EQ(s.drain(Drain::Completely, 10, 5,
                    [&s] { return s.got.size() == 2; }),
            DrainEnd::Stopped);
  EXPECT_EQ(s.got.size(), 2u);
  EXPECT_EQ(s.on.backlog(), 1u);  // the third hop, submitted, not drained
}

// A 4-channel region beside four standalone channels fed the same
// requests: take_completions() must equal the channels' own completions,
// taken one by one and concatenated in index order.
struct ChannelByChannel {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  AddressMapping map{sys.num_channels(), sys.timing()};
  std::vector<DramChannel> ref;

  ChannelByChannel() {
    for (unsigned i = 0; i < sys.num_channels(); ++i)
      ref.emplace_back(sys.timing(), map);
  }
  void submit(MachAddr a, Cycle arrival, Priority pri, int hint = -1) {
    DramRequest req{.addr = a, .priority = pri, .arrival = arrival};
    req.id = sys.submit(req, hint);
    ref[hint >= 0 ? static_cast<unsigned>(hint) : map.decode(a).channel]
        .submit(req);
  }
  void drain_until(Cycle now) {
    sys.drain_until(now);
    for (DramChannel& c : ref) c.drain_until(now);
  }
  [[nodiscard]] std::vector<DramCompletion> expected() {
    std::vector<DramCompletion> all;
    for (DramChannel& c : ref) {
      const auto part = c.take_completions();
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }
  [[nodiscard]] std::size_t channel_demand() const {
    std::size_t n = 0;
    for (unsigned i = 0; i < sys.num_channels(); ++i)
      n += sys.channel(i).demand_backlog();
    return n;
  }
};

void expect_same(std::span<const DramCompletion> got,
                 const std::vector<DramCompletion>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].arrival, want[i].arrival);
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].finish, want[i].finish);
    EXPECT_EQ(got[i].row_hit, want[i].row_hit);
    EXPECT_EQ(got[i].priority, want[i].priority);
  }
}

TEST(DramSystem, TakeEqualsTheChannelsConcatenatedInOrder) {
  ChannelByChannel r;
  Pcg32 rng(11);
  Cycle now = 0;
  std::set<unsigned> completing_counts;
  for (int round = 0; round < 300; ++round) {
    // A random subset of the channels gets work due this round; a round
    // whose subset is empty completes nothing.
    const std::uint32_t subset = rng.bounded(16);
    for (unsigned ch = 0; ch < 4; ++ch) {
      if ((subset >> ch & 1) == 0) continue;
      for (std::uint32_t k = 1 + rng.bounded(3); k > 0; --k)
        r.submit(rng.bounded64(1ull << 30) & ~63ull, now + rng.bounded(200),
                 rng.chance(0.3) ? Priority::Background : Priority::Demand,
                 static_cast<int>(ch));
    }
    now += 5'000;
    r.drain_until(now);
    const auto want = r.expected();
    unsigned channels = 0;
    for (unsigned ch = 0; ch < 4; ++ch) channels += subset >> ch & 1;
    completing_counts.insert(channels);
    expect_same(r.sys.take_completions(), want);
    EXPECT_EQ(r.sys.demand_backlog(), r.channel_demand());
  }
  // Rounds with 0, 1 and several completing channels all ran.
  EXPECT_TRUE(completing_counts.count(0));
  EXPECT_TRUE(completing_counts.count(1));
  EXPECT_TRUE(completing_counts.count(4));
}

// When one channel completed, its own buffer is handed out: the view must
// survive further submissions to that channel and the others.
TEST(DramSystem, LoneChannelSpanSurvivesSubmit) {
  ChannelByChannel r;
  for (int i = 0; i < 8; ++i)
    r.submit(static_cast<MachAddr>(i) * 4096, 0, Priority::Demand, 2);
  r.drain_until(10'000);
  const auto done = r.sys.take_completions();
  const std::vector<DramCompletion> want = r.expected();
  ASSERT_EQ(done.size(), 8u);
  for (int i = 0; i < 64; ++i)
    r.submit(static_cast<MachAddr>(i) * 64, 10'000, Priority::Background,
             i % 4);
  expect_same(done, want);
}

// The region keeps its demand backlog as a counter; it must equal the
// channels' sum after every submit, drain and restore.
TEST(DramSystem, DemandBacklogCounterEqualsTheChannelSum) {
  ChannelByChannel r;
  Pcg32 rng(5);
  Cycle now = 0;
  for (int step = 0; step < 2'000; ++step) {
    const std::uint32_t op = rng.bounded(10);
    if (op < 6) {
      r.submit(rng.bounded64(1ull << 30) & ~63ull, now + rng.bounded(3'000),
               rng.chance(0.5) ? Priority::Background : Priority::Demand);
    } else if (op < 9) {
      now += rng.bounded(2'000);
      r.sys.drain_until(now);
      (void)r.sys.take_completions();
    } else {
      snap::Writer w;
      r.sys.save(w);
      ChannelByChannel fresh;
      snap::Reader into_fresh(w.buffer());
      fresh.sys.restore(into_fresh);
      EXPECT_EQ(fresh.sys.demand_backlog(), fresh.channel_demand());
      EXPECT_EQ(fresh.sys.demand_backlog(), r.sys.demand_backlog());
      snap::Reader into_self(w.buffer());
      r.sys.restore(into_self);
    }
    ASSERT_EQ(r.sys.demand_backlog(), r.channel_demand()) << "step " << step;
  }
  r.sys.drain_all(now);
  EXPECT_EQ(r.sys.demand_backlog(), 0u);
}

}  // namespace
}  // namespace hmm
