// Snapshot layer tests: the CRC-framed binary format itself (round-trip,
// corruption detection, framing discipline), save/restore round-trips
// of every stateful component, and crafted inputs whose CRCs are valid
// but whose counts, shapes, indices or field values are not. The
// canonical property is byte equality:
//   save(x) == save(restore_into_fresh(save(x)))
// which holds only if restore() reconstructs *all* serialized state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/units.hh"
#include "core/hotness.hh"
#include "core/translation_table.hh"
#include "dram/dram_system.hh"
#include "fault/sim_error.hh"
#include "ras/ras.hh"
#include "runner/journal.hh"
#include "schemes/line_cache.hh"
#include "schemes/memcache.hh"
#include "sim/checkpoint.hh"
#include "sim/memsim.hh"
#include "trace/workloads.hh"

namespace hmm {
namespace {

// --- format primitives ------------------------------------------------------

TEST(Crc32, MatchesTheReferenceVector) {
  const auto* s = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(snap::crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(snap::crc32(s, 0), 0u);
}

TEST(Snapshot, PrimitivesRoundTrip) {
  snap::Writer w;
  w.begin_section(snap::tag('T', 'E', 'S', 'T'));
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.b(true);
  w.b(false);
  w.f64(-0.0);  // sign bit must survive (raw IEEE-754 bits)
  w.f64(1.0 / 3.0);
  w.str("fig13/FT/64KB");
  w.str("");
  w.end_section();

  snap::Reader r(w.buffer());
  r.begin_section(snap::tag('T', 'E', 'S', 'T'));
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "fig13/FT/64KB");
  EXPECT_EQ(r.str(), "");
  r.end_section();
  EXPECT_TRUE(r.at_end());
}

TEST(Snapshot, CorruptionIsDetectedByTheSectionCrc) {
  snap::Writer w;
  w.begin_section(snap::tag('T', 'E', 'S', 'T'));
  w.u64(42);
  w.str("payload");
  w.end_section();

  // Flip one payload bit (past the 12-byte tag+size header).
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes[14] ^= 0x01;
  snap::Reader r(bytes);
  EXPECT_THROW(r.begin_section(snap::tag('T', 'E', 'S', 'T')),
               fault::SimError);
}

TEST(Snapshot, WrongTagAndTruncationThrow) {
  snap::Writer w;
  w.begin_section(snap::tag('A', 'A', 'A', 'A'));
  w.u32(7);
  w.end_section();

  snap::Reader wrong(w.buffer());
  EXPECT_THROW(wrong.begin_section(snap::tag('B', 'B', 'B', 'B')),
               fault::SimError);

  std::vector<std::uint8_t> cut = w.buffer();
  cut.resize(cut.size() - 3);
  snap::Reader trunc(cut);
  EXPECT_THROW(trunc.begin_section(snap::tag('A', 'A', 'A', 'A')),
               fault::SimError);
}

TEST(Snapshot, ReaderRejectsOverconsumptionOfASection) {
  snap::Writer w;
  w.begin_section(snap::tag('T', 'E', 'S', 'T'));
  w.u32(1);
  w.end_section();
  snap::Reader r(w.buffer());
  r.begin_section(snap::tag('T', 'E', 'S', 'T'));
  (void)r.u32();
  EXPECT_THROW((void)r.u32(), fault::SimError);  // past the section payload
}

// --- component round-trips --------------------------------------------------

TEST(Pcg32, RawStateResumesTheStreamExactly) {
  Pcg32 a(123, 456);
  for (int i = 0; i < 1000; ++i) (void)a.next();
  const Pcg32::Raw mid = a.raw();
  std::vector<std::uint32_t> expect;
  for (int i = 0; i < 64; ++i) expect.push_back(a.next());

  Pcg32 b;  // arbitrary fresh state
  b.set_raw(mid);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(b.next(), expect[i]);
}

TEST(RunningStat, RawRoundTripIncludingEmptySentinels) {
  RunningStat empty;
  RunningStat restored;
  restored.add(99);  // dirty state that restore must fully overwrite
  restored.set_raw(empty.raw());
  EXPECT_EQ(restored.count(), 0u);

  RunningStat s;
  s.add(3.5);
  s.add(-1.25);
  RunningStat t;
  t.set_raw(s.raw());
  EXPECT_EQ(t.count(), s.count());
  EXPECT_EQ(t.mean(), s.mean());
  EXPECT_EQ(t.min(), s.min());
  EXPECT_EQ(t.max(), s.max());
  // After restore both must keep evolving identically.
  s.add(7.0);
  t.add(7.0);
  EXPECT_EQ(t.mean(), s.mean());
}

[[nodiscard]] std::vector<std::uint8_t> table_bytes(
    const TranslationTable& t) {
  snap::Writer w;
  t.save(w);
  return w.buffer();
}

TEST(TranslationTable, RoundTripsIdleAndMidChoreographyStates) {
  const Geometry g{64 * MiB, 16 * MiB, 1 * MiB, 4 * KiB};
  TranslationTable t(g, TableMode::HardwareNMinus1);

  // Drive the table through Fig 8-style mutations: a CAM entry, a pending
  // relocation, an empty row, and a half-complete live fill.
  t.set_row(3, 40);        // q = 40 (>= N) occupies slot 3
  t.note_data_at(40, 3);
  t.note_data_at(3, 40);
  t.set_pending(5, true);  // row 5 mid-relocation (P bit)
  t.set_row_empty(7);
  t.begin_fill(9, 41, g.page_bytes * 41);
  t.mark_sub_block(0);
  t.mark_sub_block(3);

  const std::vector<std::uint8_t> bytes = table_bytes(t);
  TranslationTable u(g, TableMode::HardwareNMinus1);
  {
    snap::Reader r(bytes);
    u.restore(r);
  }
  EXPECT_EQ(table_bytes(u), bytes);

  // Behavioural spot checks on the restored table.
  EXPECT_EQ(u.occupant(3), 40u);
  EXPECT_TRUE(u.pending(5));
  EXPECT_TRUE(u.fill_active());
  EXPECT_EQ(u.fill_page(), 41u);
  EXPECT_EQ(u.fill_ready_count(), 2u);
  EXPECT_TRUE(u.sub_block_ready(3));
  EXPECT_FALSE(u.sub_block_ready(1));
  for (PhysAddr a = 0; a < g.total_bytes; a += g.page_bytes / 2) {
    const Route ra = t.translate(a);
    const Route rb = u.translate(a);
    EXPECT_EQ(ra.region, rb.region);
    EXPECT_EQ(ra.mach, rb.mach);
    EXPECT_EQ(ra.served_by_fill_slot, rb.served_by_fill_slot);
  }
}

TEST(SyntheticWorkload, RoundTripResumesTheRecordStreamExactly) {
  const WorkloadInfo info{"pgbench", "", 0, make_pgbench};
  auto a = info.make(777);
  for (int i = 0; i < 5000; ++i) (void)a->next();

  snap::Writer w;
  a->save(w);
  auto b = info.make(777);  // same construction, fresh cursor
  {
    snap::Reader r(w.buffer());
    b->restore(r);
  }
  EXPECT_EQ(b->emitted(), a->emitted());
  for (int i = 0; i < 2000; ++i) {
    const TraceRecord ra = a->next();
    const TraceRecord rb = b->next();
    ASSERT_EQ(ra.addr, rb.addr);
    ASSERT_EQ(ra.timestamp, rb.timestamp);
    ASSERT_EQ(ra.cpu, rb.cpu);
    ASSERT_EQ(ra.type, rb.type);
  }
}

// --- full simulator ---------------------------------------------------------

[[nodiscard]] MemSimConfig live_migration_config() {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.scheme = "Live";
  cfg.controller.migration_enabled = true;
  cfg.controller.swap_interval = 500;  // frequent swaps: rich mid-flight state
  return cfg;
}

// Saving at many access counts K lands checkpoints inside every phase of
// the swap choreography (idle, mid-copy, fill in flight, drain) — the
// byte-equality property must hold at all of them.
TEST(MemSimSnapshot, SaveRestoreSaveIsByteIdenticalAcrossSwapPhases) {
  const WorkloadInfo info{"pgbench", "", 0, make_pgbench};
  const MemSimConfig cfg = live_migration_config();

  MemSim sim(cfg);
  auto gen = info.make(4242);
  std::uint64_t replayed = 0;
  for (const std::uint64_t k : {1ull, 257ull, 977ull, 3000ull, 7919ull}) {
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
}

// --- crafted inputs --------------------------------------------------------

// A checkpoint or journal is read back from disk, so a count or shape in
// it is untrusted even when its section CRC is valid: each must end in
// SimError(Snapshot), never std::bad_alloc.

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

[[nodiscard]] std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes,
                                    std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= std::uint64_t{bytes[at + static_cast<std::size_t>(i)]} << (8 * i);
  return v;
}

/// Recomputes the CRC of the section whose header starts at `at`.
void reseal(std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < 8; ++i)
    size |= static_cast<std::uint64_t>(bytes[at + 4 + i]) << (8 * i);
  const std::size_t payload = at + 12;
  const std::uint32_t crc = snap::crc32(bytes.data() + payload, size);
  for (int i = 0; i < 4; ++i)
    bytes[payload + size + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
}

void expect_snapshot_error(const std::function<void()>& restore) {
  try {
    restore();
    ADD_FAILURE() << "the crafted input was accepted";
  } catch (const fault::SimError& e) {
    EXPECT_EQ(e.kind(), fault::SimErrorKind::Snapshot) << e.what();
  }
}

TEST(CraftedSnapshot, HugeBankCountIsASnapshotError) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  snap::Writer w;
  sys.save(w);
  std::vector<std::uint8_t> bytes = w.take();
  // 'DSYS' (header, u8 region, u64 channels, u64 next id, CRC) comes
  // first; the first 'DCHN' payload opens with the bank count.
  const std::size_t dchn = 12 + 1 + 8 + 8 + 4;
  ASSERT_EQ(bytes[dchn], 'D');
  ASSERT_EQ(bytes[dchn + 1], 'C');
  put_u64(bytes, dchn + 12, 1ull << 40);
  reseal(bytes, dchn);
  DramSystem fresh = DramSystem::make(Region::OffPackage);
  expect_snapshot_error([&] {
    snap::Reader r(bytes);
    fresh.restore(r);
  });
}

TEST(CraftedSnapshot, HugeFaultEventCountDropsTheJournalLine) {
  runner::CellResult cell;
  cell.key = "crafted/a";
  cell.status = "ok";
  cell.ok = true;
  // A marker right before the fault-event count, so the test finds the
  // count without restating the record layout.
  cell.result.degraded_at = 0x1122334455667788ull;
  cell.result.fault_events.push_back(
      fault::FaultEvent{fault::FaultSite::MediaTransient, 1, 2});
  snap::Writer good;
  runner::encode_cell(good, cell);
  std::vector<std::uint8_t> bad = good.buffer();
  const std::uint8_t marker[] = {0x88, 0x77, 0x66, 0x55,
                                 0x44, 0x33, 0x22, 0x11};
  const auto it = std::search(bad.begin(), bad.end(), std::begin(marker),
                              std::end(marker));
  ASSERT_NE(it, bad.end());
  put_u64(bad, static_cast<std::size_t>(it - bad.begin()) + 8, 1ull << 40);
  reseal(bad, 0);
  expect_snapshot_error([&] {
    snap::Reader r(bad);
    (void)runner::decode_cell(r);
  });

  // --resume treats the crafted line like a torn tail: it is dropped and
  // the good line before it survives.
  const std::string path =
      ::testing::TempDir() + "hmm_snapshot_crafted.jsonl";
  {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"key\":\"crafted/a\",\"status\":\"ok\",\"blob\":\""
       << runner::to_hex(good.buffer()) << "\"}\n"
       << "{\"key\":\"crafted/b\",\"status\":\"ok\",\"blob\":\""
       << runner::to_hex(bad) << "\"}\n";
  }
  const runner::Journal j(path);
  ASSERT_EQ(j.recovered().size(), 1u);
  EXPECT_EQ(j.recovered()[0].key, "crafted/a");
  std::remove(path.c_str());
}

// The slot count is a construction-time shape: a table checkpointed on
// one geometry must not restore into a table built on another.
TEST(CraftedSnapshot, TableShapeMismatchIsASnapshotError) {
  TranslationTable small(Geometry{64 * MiB, 8 * MiB, 1 * MiB, 4 * KiB},
                         TableMode::HardwareNMinus1);
  TranslationTable large(Geometry{64 * MiB, 16 * MiB, 1 * MiB, 4 * KiB},
                         TableMode::HardwareNMinus1);
  const std::vector<std::uint8_t> bytes = table_bytes(small);
  expect_snapshot_error([&] {
    snap::Reader r(bytes);
    large.restore(r);
  });
}

// Offset of the first occurrence of the little-endian `marker` in `bytes`,
// so a test can find a field without restating the whole section layout.
[[nodiscard]] std::size_t find_u64(const std::vector<std::uint8_t>& bytes,
                                   std::uint64_t marker) {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i)
    le[i] = static_cast<std::uint8_t>(marker >> (8 * i));
  const auto it =
      std::search(bytes.begin(), bytes.end(), std::begin(le), std::end(le));
  EXPECT_NE(it, bytes.end());
  return static_cast<std::size_t>(it - bytes.begin());
}

// A queued request's coordinates derive from its address. A crafted bank
// index must not be adopted: the next drain would index past the
// channel's 8 banks.
TEST(CraftedSnapshot, QueuedBankBeyondTheChannelIsASnapshotError) {
  DramSystem sys = DramSystem::make(Region::OffPackage);
  constexpr Cycle kMarker = 0x1122334455667788ull;
  (void)sys.submit(DramRequest{.addr = 0, .arrival = kMarker}, 0);
  snap::Writer w;
  sys.save(w);
  std::vector<std::uint8_t> bytes = w.take();
  // Channel 0's 'DCHN' follows 'DSYS'; in its queue entry the arrival is
  // followed by issued (u64), id (u64), channel (u32), then the bank.
  const std::size_t dchn = 12 + 1 + 8 + 8 + 4;
  const std::size_t bank = find_u64(bytes, kMarker) + 8 + 8 + 8 + 4;
  for (int i = 0; i < 4; ++i)
    bytes[bank + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((1u << 30) >> (8 * i));
  reseal(bytes, dchn);
  DramSystem fresh = DramSystem::make(Region::OffPackage);
  expect_snapshot_error([&] {
    snap::Reader r(bytes);
    fresh.restore(r);
  });
}

// Two geometries with the same slot count and row count but 1 vs 8
// sub-blocks per page: a table checkpointed on the first passes every
// shape check of the second except its sub-block bitmaps.
constexpr Geometry kOneSubBlock{64 * MiB, 16 * MiB, 1 * MiB, 1 * MiB};
constexpr Geometry kEightSubBlocks{64 * MiB, 16 * MiB, 1 * MiB, 128 * KiB};

TEST(CraftedSnapshot, ShortFillBitmapIsASnapshotError) {
  TranslationTable one(kOneSubBlock, TableMode::HardwareNMinus1);
  one.begin_fill(9, 41, kOneSubBlock.page_bytes * 41);
  const std::vector<std::uint8_t> bytes = table_bytes(one);
  TranslationTable eight(kEightSubBlocks, TableMode::HardwareNMinus1);
  expect_snapshot_error([&] {
    snap::Reader r(bytes);
    eight.restore(r);
  });
}

TEST(CraftedSnapshot, ShortShadowBitmapsAreASnapshotError) {
  TranslationTable one(kOneSubBlock, TableMode::Shadow);
  one.begin_shadow(2, one.hole());
  const std::vector<std::uint8_t> bytes = table_bytes(one);
  TranslationTable eight(kEightSubBlocks, TableMode::Shadow);
  expect_snapshot_error([&] {
    snap::Reader r(bytes);
    eight.restore(r);
  });
}

// The active fill's slot and the cached empty slot index the table's
// rows; a crafted one past the last slot must not be adopted.
TEST(CraftedSnapshot, SlotIndexBeyondTheTableIsASnapshotError) {
  const Geometry g = kEightSubBlocks;
  TranslationTable t(g, TableMode::HardwareNMinus1);
  constexpr MachAddr kMarker = 0x1122334455667788ull;
  t.begin_fill(9, 41, kMarker);  // the fill's old base, last before its bitmap
  const std::vector<std::uint8_t> good = table_bytes(t);
  // Before the old base: has_empty (b), empty (u64), fill_active (b),
  // fill_slot (u64), fill_page (u64).
  const std::size_t old_base = find_u64(good, kMarker);
  for (const std::size_t at : {old_base - 16, old_base - 25}) {
    SCOPED_TRACE(at == old_base - 16 ? "fill slot" : "empty slot");
    std::vector<std::uint8_t> bad = good;
    put_u64(bad, at, g.slots());
    reseal(bad, 0);
    TranslationTable fresh(g, TableMode::HardwareNMinus1);
    expect_snapshot_error([&] {
      snap::Reader r(bad);
      fresh.restore(r);
    });
  }
}

// A placement entry names the machine page holding a page's data; one
// past the last machine page restored, and translation then routed the
// page outside memory.
TEST(CraftedSnapshot, PlacementOutsideTheMachineIsASnapshotError) {
  const Geometry g = kEightSubBlocks;
  for (const TableMode mode : {TableMode::FunctionalN, TableMode::Shadow}) {
    SCOPED_TRACE(static_cast<int>(mode));
    TranslationTable t(g, mode);
    t.note_data_at(40, 50);  // page 40's data at machine page 50
    t.note_data_at(50, 40);
    const std::vector<std::uint8_t> good = table_bytes(t);
    // The placements are written sorted: (40, 50), then (50, 40).
    const std::size_t at = find_u64(good, 50);
    ASSERT_EQ(get_u64(good, at - 8), 40u);
    std::vector<std::uint8_t> bad = good;
    put_u64(bad, at, g.total_pages());
    reseal(bad, 0);
    TranslationTable fresh(g, mode);
    expect_snapshot_error([&] {
      snap::Reader r(bad);
      fresh.restore(r);
    });
  }
}

// Each page map of the table is one array indexed by page, written as a
// (page, value) list. An entry the array cannot hold must not restore:
// a page past the geometry, a CAM slot past the table, a placement on the
// page's own home (the array cannot tell it from no entry, so it would
// re-save differently) or onto a machine page another entry names.
TEST(CraftedSnapshot, PageMapEntryTheArrayCannotHoldIsASnapshotError) {
  const Geometry g = kEightSubBlocks;  // 64 pages, 16 slots
  TranslationTable t(g, TableMode::HardwareNMinus1);
  t.set_row(3, 40);  // CAM: page 40 in slot 3
  t.note_data_at(40, 3);
  t.note_data_at(3, 40);
  const std::vector<std::uint8_t> good = table_bytes(t);
  // Past the section header, mode (u8), slot count (u64), row count (u64)
  // and the rows (u64 occupant + bool each) comes the CAM list, one entry
  // (40, 3); then the placements (3, 40), (15, 63) (the ghost at Ω) and
  // (40, 3), each a (u64 page, u64 value) pair after a u64 count.
  const std::size_t cam = 12 + 1 + 8 + 8 + std::size_t{g.slots()} * 9;
  const std::size_t placed = cam + 8 + 16;
  ASSERT_EQ(get_u64(good, cam), 1u);
  ASSERT_EQ(get_u64(good, cam + 8), 40u);
  ASSERT_EQ(get_u64(good, placed), 3u);
  ASSERT_EQ(get_u64(good, placed + 8 + 32), 40u);
  const struct {
    const char* what;
    std::size_t at;
    std::uint64_t value;
  } cases[] = {
      {"CAM page past the geometry", cam + 8, g.total_pages()},
      {"CAM slot past the table", cam + 16, g.slots()},
      {"placed page past the geometry", placed + 8 + 32, g.total_pages()},
      {"placement at the page's own home", placed + 8 + 40, 40},
      {"placement onto the ghost's machine page", placed + 8 + 40,
       g.omega()},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    std::vector<std::uint8_t> bad = good;
    put_u64(bad, c.at, c.value);
    reseal(bad, 0);
    TranslationTable fresh(g, TableMode::HardwareNMinus1);
    expect_snapshot_error([&] {
      snap::Reader r(bad);
      fresh.restore(r);
    });
  }
}

// RAS state is indexed by frame id (one flag byte per frame), and
// resolve() follows the remap table until it reaches an unremapped frame.
// 16,384 frames; the four boot-reserved spares are 16379..16382.
constexpr Geometry kRasGeom{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};

[[nodiscard]] std::vector<std::uint8_t> ras_bytes(const ras::RasEngine& e) {
  snap::Writer w;
  e.save(w);
  return w.take();
}

/// Patches the first occurrence of the u64 `from` in `good` to `to` and
/// expects a fresh engine to refuse the result.
void expect_ras_refused(const std::vector<std::uint8_t>& good,
                        std::uint64_t from, std::uint64_t to) {
  std::vector<std::uint8_t> bad = good;
  put_u64(bad, find_u64(good, from), to);
  reseal(bad, 0);
  ras::RasEngine fresh(ras::RasConfig{.enabled = true}, kRasGeom, nullptr);
  expect_snapshot_error([&] {
    snap::Reader r(bad);
    fresh.restore(r);
  });
}

// Frame 3000 retired onto spare 16379: the retired set holds the first
// 3000 of the section, the pool starts at 16380, and the remap table's
// target is the first 16379.
TEST(CraftedSnapshot, RasFramesOutsideTheirRolesAreASnapshotError) {
  ras::RasEngine eng(ras::RasConfig{.enabled = true}, kRasGeom, nullptr);
  eng.flag_frame_for_test(3000);
  ASSERT_EQ(eng.remap_frame(3000, 0), PageId{16379});
  const std::vector<std::uint8_t> good = ras_bytes(eng);
  {
    SCOPED_TRACE("retired frame past the geometry");
    expect_ras_refused(good, 3000, kRasGeom.total_pages());
  }
  {
    SCOPED_TRACE("pool entry that is not a boot-reserved spare");
    expect_ras_refused(good, 16380, 5);
  }
  {
    SCOPED_TRACE("remap 3000 -> 3000: resolve(3000) would never return");
    expect_ras_refused(good, 16379, 3000);
  }
}

// A remap cycle among spares passes every per-entry check; only the
// chain length gives it away. Restore alone must refuse it (resolve()
// is never called, so an accepting restore fails the test, not hangs it).
TEST(CraftedSnapshot, RasRemapCycleIsASnapshotError) {
  ras::RasEngine eng(ras::RasConfig{.enabled = true}, kRasGeom, nullptr);
  eng.flag_frame_for_test(3000);
  ASSERT_EQ(eng.remap_frame(3000, 0), PageId{16379});
  eng.flag_frame_for_test(16379);  // the stand-in fails too
  ASSERT_EQ(eng.remap_frame(16379, 0), PageId{16380});
  // 16380 first appears as 16379's remap target (the pool moved on to
  // 16381): point it back at 16379.
  expect_ras_refused(ras_bytes(eng), 16380, 16379);
}

// A frame has one retirement state, and only a retired frame has a spare
// standing in for it. Frame 3000 retired onto spare 16379, frame 5000
// pending: moving 5000 into the retired list counted frame 3000 twice
// in healthy_frames(); renaming the retired frame left the remap entry
// of a live frame.
TEST(CraftedSnapshot, RasFrameStatesThatCannotCoexistAreASnapshotError) {
  ras::RasEngine eng(ras::RasConfig{.enabled = true}, kRasGeom, nullptr);
  eng.flag_frame_for_test(3000);
  ASSERT_EQ(eng.remap_frame(3000, 0), PageId{16379});
  eng.flag_frame_for_test(5000);
  const std::vector<std::uint8_t> good = ras_bytes(eng);
  {
    SCOPED_TRACE("frame both pending and retired");
    expect_ras_refused(good, 5000, 3000);
  }
  {
    SCOPED_TRACE("remap entry for a frame that is not retired");
    expect_ras_refused(good, 3000, 2999);
  }
}

// The sparse line-cache codec writes only valid entries, in ascending set
// order, and restore rebuilds the per-block counts from them.
TEST(CraftedSnapshot, LineCacheEntryNotValidOrNotAscendingIsASnapshotError) {
  schemes::LineCache cache(1 * MiB, 64, 4 * GiB);  // 16,384 sets
  (void)cache.access(1000 * 64, false);             // set 1000
  (void)cache.access(2000 * 64, false);             // set 2000
  snap::Writer w;
  cache.save(w);
  const std::vector<std::uint8_t> good = w.take();
  const auto refused = [&](const std::vector<std::uint8_t>& bad) {
    schemes::LineCache fresh(1 * MiB, 64, 4 * GiB);
    expect_snapshot_error([&] {
      snap::Reader r(bad);
      fresh.restore(r);
    });
  };
  {
    SCOPED_TRACE("entry without its valid bit");
    std::vector<std::uint8_t> bad = good;
    bad[find_u64(good, 1000) + 8] &= 0xFE;  // low byte of set 1000's tag
    reseal(bad, 0);
    refused(bad);
  }
  for (const std::uint64_t set : {1000ull, 500ull}) {
    SCOPED_TRACE("second set index " + std::to_string(set));
    std::vector<std::uint8_t> bad = good;
    put_u64(bad, find_u64(good, 2000), set);
    reseal(bad, 0);
    refused(bad);
  }
}

/// Offset of the header of the first section tagged `t` in a stream of
/// sections.
[[nodiscard]] std::size_t find_section(const std::vector<std::uint8_t>& bytes,
                                       std::uint32_t t) {
  std::size_t at = 0;
  while (at + 12 <= bytes.size()) {
    std::uint32_t tag = 0;
    std::uint64_t size = 0;
    for (std::size_t i = 0; i < 4; ++i)
      tag |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    for (std::size_t i = 0; i < 8; ++i)
      size |= static_cast<std::uint64_t>(bytes[at + 4 + i]) << (8 * i);
    if (tag == t) return at;
    at += 12 + static_cast<std::size_t>(size) + 4;
  }
  ADD_FAILURE() << "no '" << snap::tag_name(t) << "' section";
  return 0;
}

/// `scheme` under live_migration_config() with audits, `accesses`
/// references of pgbench in, with a swap in flight: its MemSim::save()
/// bytes, and the offset of its engine section, whose first step has a
/// mutation.
struct MidSwap {
  MemSimConfig cfg;
  std::vector<std::uint8_t> bytes;
  std::size_t meng = 0;
};

[[nodiscard]] MidSwap mid_swap(const std::string& scheme,
                               std::uint64_t accesses = 7919) {
  MidSwap m;
  m.cfg = live_migration_config();
  m.cfg.scheme = scheme;
  m.cfg.audit_interval = 1024;
  MemSim sim(m.cfg);
  auto gen = make_pgbench(4242);
  sim.run_chunk(*gen, accesses);
  snap::Writer w;
  sim.save(w);
  m.bytes = w.take();
  m.meng = find_section(m.bytes, snap::tag('M', 'E', 'N', 'G'));
  // The payload opens with the step count; the first step's mutation
  // count sits 61 bytes in.
  EXPECT_GT(m.bytes[m.meng + 12], 0) << "no swap in flight";
  EXPECT_GT(m.bytes[m.meng + 12 + 61], 0) << "the first step has no mutation";
  return m;
}

/// The first mutation of the engine's first step: its kind byte, then its
/// row as a u64.
constexpr std::size_t kFirstMutationKind = 12 + 69;
constexpr std::size_t kFirstMutationRow = 12 + 70;

void expect_sim_refused(const MidSwap& good, std::vector<std::uint8_t> bad) {
  reseal(bad, good.meng);
  MemSim fresh(good.cfg);
  expect_snapshot_error([&] {
    snap::Reader r(bad);
    fresh.restore(r);
  });
}

// Each field reads back only values its type holds, and a bool only 0 or
// 1: otherwise restore would adopt a different value than the bytes say,
// and a re-save would write other bytes.
TEST(CraftedSnapshot, NonCanonicalFieldIsASnapshotError) {
  {
    SCOPED_TRACE("checkpoint META stats_reset_done of 2");
    const std::string path =
        ::testing::TempDir() + "hmm_snapshot_noncanonical.ckpt";
    const MemSimConfig cfg = live_migration_config();
    MemSim sim(cfg);
    auto gen = make_pgbench(4242);
    sim.run_chunk(*gen, 512);
    save_checkpoint(path, CheckpointMeta{7, 512, true}, *gen, sim);
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream is(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
    }
    // After the 16-byte file header, 'META' holds accesses_done (u64) and
    // then stats_reset_done.
    constexpr std::size_t kMeta = 16;
    ASSERT_EQ(bytes.at(kMeta + 12 + 8), 1);
    bytes[kMeta + 12 + 8] = 2;
    reseal(bytes, kMeta);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
    }
    MemSim fresh(cfg);
    auto fresh_gen = make_pgbench(4242);
    expect_snapshot_error(
        [&] { (void)load_checkpoint(path, 7, 512, *fresh_gen, fresh); });
    std::remove(path.c_str());
  }
  {
    SCOPED_TRACE("'DCHN' bank open byte of 2");
    DramSystem sys = DramSystem::make(Region::OffPackage);
    snap::Writer w;
    sys.save(w);
    std::vector<std::uint8_t> bytes = w.take();
    // Channel 0's 'DCHN' follows 'DSYS'; after the bank count comes the
    // first bank's open flag.
    const std::size_t dchn = 12 + 1 + 8 + 8 + 4;
    bytes[dchn + 12 + 8] = 2;
    reseal(bytes, dchn);
    DramSystem fresh = DramSystem::make(Region::OffPackage);
    expect_snapshot_error([&] {
      snap::Reader r(bytes);
      fresh.restore(r);
    });
  }
  {
    SCOPED_TRACE("'MENG' mutation row of 2^40 in a 32-bit SlotId");
    const MidSwap good = mid_swap("Live");
    std::vector<std::uint8_t> bad = good.bytes;
    put_u64(bad, good.meng + kFirstMutationRow, 1ull << 40);
    expect_sim_refused(good, bad);
  }
}

// A step's mutations index the table's rows and pages. A crafted row
// past the slots crashed the next swap step's table write, and an
// unknown kind surfaced only as a later audit failure.
TEST(CraftedSnapshot, MigrationStepBeyondTheTableIsASnapshotError) {
  for (const char* scheme : {"Live", "N-1"}) {
    SCOPED_TRACE(scheme);
    const MidSwap good = mid_swap(scheme);
    {
      SCOPED_TRACE("row 2^24");
      std::vector<std::uint8_t> bad = good.bytes;
      put_u64(bad, good.meng + kFirstMutationRow, 1ull << 24);
      expect_sim_refused(good, bad);
    }
    {
      SCOPED_TRACE("kind 200");
      std::vector<std::uint8_t> bad = good.bytes;
      bad[good.meng + kFirstMutationKind] = 200;
      expect_sim_refused(good, bad);
    }
  }
}

// A step's copy streams from `src` and to `dst`, and nomad's passes from
// the offsets they list. A copy to or from 2^60 restored, ran on and
// passed every audit, streaming outside memory.
TEST(CraftedSnapshot, MigrationStepOutsideMemoryIsASnapshotError) {
  {
    // 1,000 references in, Live's current step is a live fill.
    const MidSwap good = mid_swap("Live", 1000);
    const std::uint64_t page = good.cfg.controller.geom.page_bytes;
    // After the step count: src, dst and bytes (u64), the live-fill flag,
    // then fill_slot, fill_page and fill_old_base (u64).
    ASSERT_EQ(good.bytes[good.meng + 12 + 32], 1) << "not a live fill";
    const struct {
      const char* what;
      std::size_t at;
      std::uint64_t value;
    } cases[] = {
        {"src 2^60", 12 + 8, 1ull << 60},
        {"dst 2^60", 12 + 16, 1ull << 60},
        {"dst off a page boundary", 12 + 16, page / 2},
        {"two pages", 12 + 24, 2 * page},
        {"fill page 2^40", 12 + 41, 1ull << 40},
        {"fill old base 2^60", 12 + 49, 1ull << 60},
    };
    for (const auto& c : cases) {
      SCOPED_TRACE(c.what);
      std::vector<std::uint8_t> bad = good.bytes;
      put_u64(bad, good.meng + c.at, c.value);
      expect_sim_refused(good, bad);
    }
  }
  {
    SCOPED_TRACE("nomad pass offset past the page");
    const MidSwap good = mid_swap("nomad");
    // One step (its one mutation is the commit), then the four chunk
    // cursors, the pass index and the pass's offsets.
    constexpr std::size_t kPassOffsets = 12 + 94 + 32 + 4;
    ASSERT_EQ(good.bytes[good.meng + 12], 1);
    ASSERT_EQ(good.bytes[good.meng + 12 + 61], 1);
    ASSERT_GT(get_u64(good.bytes, good.meng + kPassOffsets), 0u)
        << "no pass running";
    std::vector<std::uint8_t> bad = good.bytes;
    put_u64(bad, good.meng + kPassOffsets + 8,
            good.cfg.controller.geom.page_bytes);
    expect_sim_refused(good, bad);
  }
}

// A line-cache entry's tag places its line in the address space, and the
// store keeps entries only as wide as the space's largest tag needs. A
// tag past it restored, and a later miss on its set wrote the dirty
// victim back to an address outside memory.
TEST(CraftedSnapshot, LineCacheTagPastTheAddressSpaceIsASnapshotError) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.controller.swap_interval = 1000;
  cfg.controller.migration_enabled = true;
  cfg.scheme = "Alloy";
  cfg.audit_interval = 1024;
  MemSim sim(cfg);
  auto gen = make_pgbench(4242);
  sim.run_chunk(*gen, 4000);
  snap::Writer w;
  sim.save(w);
  const std::vector<std::uint8_t> good = w.take();
  const std::size_t lnch = find_section(good, snap::tag('L', 'N', 'C', 'H'));
  ASSERT_GT(get_u64(good, lnch + 12), 0u) << "no valid line";
  // 512 MiB of 64-byte sets over 4 GiB: tags 0..7.
  constexpr std::uint64_t kMaxTag = 7;
  auto& alloy = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
  ASSERT_EQ(alloy.cache_for_test().max_tag(), kMaxTag);
  // After the valid count, the first entry: its set (u64), then its
  // packed (tag << 2) | dirty << 1 | valid (u32).
  constexpr std::size_t kFirstEntry = 12 + 8 + 8;
  for (const std::uint64_t tag : {kMaxTag + 1, std::uint64_t{1} << 29}) {
    SCOPED_TRACE("tag " + std::to_string(tag));
    std::vector<std::uint8_t> bad = good;
    const std::uint64_t entry = tag << 2 | 3;
    for (std::size_t i = 0; i < 4; ++i)
      bad[lnch + kFirstEntry + i] = static_cast<std::uint8_t>(entry >> (8 * i));
    reseal(bad, lnch);
    MemSim fresh(cfg);
    expect_snapshot_error([&] {
      snap::Reader r(bad);
      fresh.restore(r);
    });
  }
}

// snap::sorted_map and the RAS frame lists write keys strictly ascending.
// A repeated or descending key restored, then re-saved to different bytes.
TEST(CraftedSnapshot, MapKeysNotAscendingAreASnapshotError) {
  OracleTracker oracle;
  oracle.record_access(0x1111, 0);
  oracle.record_access(0x2222, 0);
  snap::Writer w;
  oracle.save(w);
  const std::vector<std::uint8_t> good = w.take();
  for (const std::uint64_t second : {0x1111ull, 0x0111ull}) {
    SCOPED_TRACE(second == 0x1111 ? "repeated key" : "descending key");
    std::vector<std::uint8_t> bad = good;
    put_u64(bad, find_u64(good, 0x2222), second);
    reseal(bad, 0);
    OracleTracker fresh;
    expect_snapshot_error([&] {
      snap::Reader r(bad);
      fresh.restore(r);
    });
  }
}

TEST(CraftedSnapshot, SetKeysNotAscendingAreASnapshotError) {
  ras::RasEngine eng(ras::RasConfig{.enabled = true}, kRasGeom, nullptr);
  eng.flag_frame_for_test(3000);  // the pending set: {3000, 4000}
  eng.flag_frame_for_test(4000);
  const std::vector<std::uint8_t> good = ras_bytes(eng);
  {
    SCOPED_TRACE("repeated key");
    expect_ras_refused(good, 4000, 3000);
  }
  {
    SCOPED_TRACE("descending key");
    expect_ras_refused(good, 4000, 2000);
  }
}

// The multi-queue tracker is a CAM: restore refuses what its audit
// rejects, since no index rebuilt at restore would notice it.
[[nodiscard]] std::vector<std::uint8_t> mq_bytes(const MultiQueueTracker& mq) {
  snap::Writer w;
  mq.save(w);
  return w.take();
}

void expect_mq_refused(const std::vector<std::uint8_t>& bad,
                       unsigned capacity) {
  MultiQueueTracker fresh(3, capacity);
  expect_snapshot_error([&] {
    snap::Reader r(bad);
    fresh.restore(r);
  });
}

TEST(CraftedSnapshot, MultiQueuePageTrackedTwiceIsASnapshotError) {
  MultiQueueTracker mq(3, 10);
  mq.record_access(0x1111, 0);
  mq.record_access(0x2222, 0);
  const std::vector<std::uint8_t> good = mq_bytes(mq);
  std::vector<std::uint8_t> bad = good;
  put_u64(bad, find_u64(good, 0x2222), 0x1111);
  reseal(bad, 0);
  expect_mq_refused(bad, 10);
}

TEST(CraftedSnapshot, MultiQueueZeroCountIsASnapshotError) {
  MultiQueueTracker mq(3, 10);
  mq.record_access(0x1111, 0);
  const std::vector<std::uint8_t> good = mq_bytes(mq);
  std::vector<std::uint8_t> bad = good;
  put_u64(bad, find_u64(good, 0x1111) + 8, 0);  // the count follows the page
  reseal(bad, 0);
  expect_mq_refused(bad, 10);
}

TEST(CraftedSnapshot, MultiQueueInvalidPageIsASnapshotError) {
  MultiQueueTracker mq(3, 10);
  mq.record_access(0x1111, 0);
  const std::vector<std::uint8_t> good = mq_bytes(mq);
  std::vector<std::uint8_t> bad = good;
  put_u64(bad, find_u64(good, 0x1111), kInvalidPage);
  reseal(bad, 0);
  expect_mq_refused(bad, 10);
}

// Three entries in level 0 of a tracker saved with capacity 3, its
// capacity field then set to 2: every entry is valid, the level is not.
TEST(CraftedSnapshot, MultiQueueLevelAboveCapacityIsASnapshotError) {
  MultiQueueTracker mq(3, 3);
  for (const PageId p : {0x1111, 0x2222, 0x3333}) mq.record_access(p, 0);
  std::vector<std::uint8_t> bad = mq_bytes(mq);
  // Header (12 bytes), the level count (u32), then the capacity (u32).
  ASSERT_EQ(bad[12 + 4], 3);
  bad[12 + 4] = 2;
  reseal(bad, 0);
  expect_mq_refused(bad, 2);
}

}  // namespace
}  // namespace hmm
