// Scheme-zoo tests: the registry (canonical names, structured unknown-name
// error), golden bit-identity of the N / N-1 / Live swap schemes against
// the pre-refactor controller, content digests of mid-swap snapshots,
// whole checkpoint files and a journal record, behaviour sanity for the
// Alloy / flat-HMA / MemCache designs, per-scheme snapshot round-trips,
// and the invariant auditor catching injected per-scheme corruption.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/snapshot.hh"
#include "describe_result.hh"
#include "runner/experiment.hh"
#include "runner/journal.hh"
#include "schemes/flat_hma.hh"
#include "schemes/memcache.hh"
#include "schemes/registry.hh"
#include "schemes/swap_scheme.hh"
#include "sim/checkpoint.hh"
#include "sim/memsim.hh"
#include "sim/replay.hh"
#include "trace/workloads.hh"

namespace hmm {
namespace {

using fault::FaultSite;
using fault::SimError;
using fault::SimErrorKind;

// --- fixtures ---------------------------------------------------------------

// FNV-1a 64 over raw bytes: the digest every byte golden below pins. A
// CRC-32 would not do: each snapshot section ends in the CRC-32 of its
// own payload, and because CRC-32 is affine, the CRC-32 of such a
// section depends only on its tag and payload length.
std::uint64_t content_digest(const std::uint8_t* data, std::size_t len) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t content_digest(const std::vector<std::uint8_t>& bytes) {
  return content_digest(bytes.data(), bytes.size());
}

// The exact cell the pre-refactor goldens were captured on: FT workload,
// Section IV geometry, swap_interval 2000, 6000 warm-up + 6000 measured
// references, seed derive_seed(42, "golden/<name>").
MemSimConfig golden_cfg(const std::string& scheme) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.controller.swap_interval = 2000;
  cfg.controller.migration_enabled = true;
  cfg.scheme = scheme;
  return cfg;
}

struct GoldenRun {
  RunResult result;
  std::uint64_t table_digest = 0;
};

GoldenRun golden_replay(MemSimConfig cfg, const std::string& seed_name) {
  const std::uint64_t seed =
      runner::derive_seed(42, "golden/" + seed_name);
  MemSim sim(cfg);
  auto gen = section4_workloads()[0].make(seed);  // FT
  replay(sim, *gen, 6000, 12000);
  GoldenRun g;
  g.result = sim.result();
  snap::Writer w;
  sim.scheme().mutable_table()->save(w);
  g.table_digest = content_digest(w.buffer());
  return g;
}

// Every deterministic metric the pre-refactor controller produced on the
// golden cell; captured before src/schemes/ existed. The table digests
// were captured before the codecs became io(), so they pin the bytes
// the hand-written save() produced.
struct Golden {
  const char* name;
  MigrationDesign design;
  std::uint64_t seed;
  std::uint64_t swaps, migrated, on_bytes, off_bytes, os_stall, end;
  double avg, p99, onfrac;
  std::uint64_t table_digest;
};

constexpr Golden kGoldens[] = {
    {"N", MigrationDesign::N, 2415334064924998932ull, 78, 1572864, 254976,
     129024, 9906, 486456, 2649.3843333333334, 65536.0,
     0.62333333333333329, 0x94d365ac79f67b10ull},
    {"N-1", MigrationDesign::NMinus1, 7828113572835807877ull, 68, 786432,
     254144, 129856, 43180, 226851, 192.56916666666666, 512.0, 0.616,
     0xd724f220301535b7ull},
    {"Live", MigrationDesign::LiveMigration, 91150292251304964ull, 72,
     786432, 250112, 133888, 45720, 227072, 192.73866666666666, 512.0,
     0.61333333333333329, 0x45c64cd61f918a16ull},
};

void expect_matches_golden(const GoldenRun& g, const Golden& x) {
  const RunResult& r = g.result;
  EXPECT_EQ(r.accesses, 6000u);
  EXPECT_EQ(r.swaps, x.swaps);
  EXPECT_EQ(r.migrated_bytes, x.migrated);
  EXPECT_EQ(r.demand_bytes_on, x.on_bytes);
  EXPECT_EQ(r.demand_bytes_off, x.off_bytes);
  EXPECT_EQ(r.os_stall_cycles, x.os_stall);
  EXPECT_EQ(r.end_time, x.end);
  EXPECT_DOUBLE_EQ(r.avg_latency, x.avg);
  EXPECT_DOUBLE_EQ(r.p99_latency, x.p99);
  EXPECT_DOUBLE_EQ(r.on_package_fraction, x.onfrac);
  EXPECT_EQ(g.table_digest, x.table_digest);
}

// Scaled-down geometry for the zoo behaviour tests (fast, and small
// enough that the skewed pgbench hot set fits on-package).
MemSimConfig zoo_cfg(const std::string& scheme) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 1 * MiB, 4 * KiB};
  cfg.controller.swap_interval = 1000;
  cfg.controller.migration_enabled = true;
  cfg.scheme = scheme;
  return cfg;
}

RunResult zoo_replay(const MemSimConfig& cfg, std::uint64_t n,
                     std::uint64_t seed = 21) {
  MemSim sim(cfg);
  auto w = make_pgbench(seed);
  sim.run(*w, n);
  sim.finish();
  return sim.result();
}

// Content digest of the line-cache tag store behind a cache-style
// scheme: the section (tag, u64 payload size, payload, u32 CRC) that
// opens the scheme's snapshot.
std::uint64_t tag_store_digest(const MemSim& sim) {
  snap::Writer w;
  sim.scheme().save(w);
  snap::Reader r(w.buffer());
  (void)r.u32();
  const std::uint64_t payload = r.u64();
  return content_digest(w.buffer().data(), 4 + 8 + payload + 4);
}

// --- registry ---------------------------------------------------------------

TEST(SchemeRegistry, NamesAreCanonicalAndOrdered) {
  const std::vector<std::string> expected{
      "N", "N-1", "Live", "nomad", "Alloy", "flat-HMA", "MemCache"};
  EXPECT_EQ(schemes::scheme_names(), expected);
}

TEST(SchemeRegistry, UnknownNameIsAStructuredError) {
  try {
    schemes::validate_scheme_name("Aloy");
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::CheckFailed);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown memory scheme 'Aloy'"), std::string::npos)
        << msg;
    for (const std::string& name : schemes::scheme_names())
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

TEST(SchemeRegistry, MemSimRejectsUnknownSchemeName) {
  MemSimConfig cfg = zoo_cfg("definitely-not-a-scheme");
  EXPECT_THROW(MemSim sim(cfg), SimError);
}

TEST(SchemeRegistry, DefaultConfigRunsLive) {
  MemSim sim(MemSimConfig{});
  EXPECT_STREQ(sim.scheme().name(), "Live");
}

// The scheme name is the only selector: "" names no scheme.
TEST(SchemeRegistry, EmptySchemeNameIsAnUnknownName) {
  try {
    MemSim sim(zoo_cfg(""));
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::CheckFailed);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown memory scheme ''"), std::string::npos)
        << msg;
    for (const std::string& name : schemes::scheme_names())
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
}

TEST(SchemeRegistry, SwapNamesPickTheirDesignAndTableMode) {
  const struct {
    const char* name;
    MigrationDesign design;
  } cases[] = {
      {"N", MigrationDesign::N},
      {"N-1", MigrationDesign::NMinus1},
      {"Live", MigrationDesign::LiveMigration},
      {"nomad", MigrationDesign::Nomad},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    MemSim sim(zoo_cfg(c.name));
    EXPECT_STREQ(sim.scheme().name(), c.name);
    const auto& swap =
        dynamic_cast<const schemes::SwapScheme&>(sim.scheme());
    EXPECT_EQ(swap.engine().design(), c.design);
    EXPECT_EQ(swap.table().mode(), table_mode(c.design));
  }
}

// --- golden bit-identity ----------------------------------------------------

// The extracted SwapScheme must reproduce the pre-refactor controller
// bit-for-bit: every metric and the final translation-table snapshot.
TEST(SchemeGolden, SwapSchemesMatchPreRefactorController) {
  for (const Golden& x : kGoldens) {
    SCOPED_TRACE(x.name);
    EXPECT_EQ(runner::derive_seed(42, std::string("golden/") + x.name),
              x.seed);
    expect_matches_golden(golden_replay(golden_cfg(x.name), x.name), x);
  }
}

// The golden warm-up and 2100 measured references, stopped by the replay
// hook before the final drain: a mid-run state to snapshot.
void replay_to_8100(MemSim& sim, SyntheticWorkload& gen) {
  EXPECT_FALSE(replay(sim, gen, 6000, 8100, {}, [](const CheckpointMeta& at) {
    return at.accesses_done < 8100;
  }));
}

// Content digest of the whole-simulator checkpoint, MemSim::save(),
// taken with a swap in flight: the golden warm-up, 2100 measured
// references, then references fed straight to the scheme until one
// starts a swap. MemSim::step holds design N's demand until its swap
// drains, so only the scheme's own on_access() can leave N mid-swap at a
// step boundary; for the other designs the swap that began at reference
// 8000 is still streaming and the loop does not run.
std::uint64_t midswap_snapshot_digest(const std::string& name) {
  MemSim sim(golden_cfg(name));
  auto gen = section4_workloads()[0].make(
      runner::derive_seed(42, "golden/" + name));  // FT
  replay_to_8100(sim, *gen);
  for (int i = 0; i < 10000 && sim.scheme().background_idle(); ++i) {
    const TraceRecord r = gen->next();
    (void)sim.scheme().on_access(r.addr, r.type, r.timestamp);
  }
  EXPECT_FALSE(sim.scheme().background_idle()) << name;
  snap::Writer w;
  sim.save(w);
  return content_digest(w.buffer());
}

// Pins the bytes of the simulator state a format-3 checkpoint carries
// mid-swap: both DRAM systems, the table, the engine's plan with its
// pending mutations and in-flight chunks, the trackers, the 'HMCT'
// section, and the latency stats.
TEST(SchemeGolden, MidSwapCheckpointBytesArePinned) {
  EXPECT_EQ(midswap_snapshot_digest("N"), 0xf2f01506b0356c38ull);
  EXPECT_EQ(midswap_snapshot_digest("N-1"), 0x9ce97f3fcd4d3674ull);
  EXPECT_EQ(midswap_snapshot_digest("Live"), 0xd66c0ef896396706ull);
  EXPECT_EQ(midswap_snapshot_digest("nomad"), 0x5cd32aa189261005ull);
}

// --- checkpoint file goldens ------------------------------------------------

// One save_checkpoint() file per cell of a matrix that reaches every
// section and every conditional tail the format has: each registry
// scheme mid-run on the golden FT cell, the oracle tracker, the indexer's
// Chase pattern, and RAS + media faults + audits for the swap, cache and
// flat schemes.
struct FileCell {
  std::string label;
  MemSimConfig cfg;
  std::unique_ptr<SyntheticWorkload> gen;
  std::uint64_t digest;
};

MemSimConfig ras_cell_cfg(const std::string& scheme) {
  MemSimConfig cfg = golden_cfg(scheme);
  cfg.controller.swap_interval = 1000;
  cfg.audit_interval = 1024;
  cfg.fault.seed = runner::derive_seed(42, "ckpt/ras/" + scheme);
  cfg.fault.add(FaultSite::MediaTransient, 1e-3)
      .add(FaultSite::MediaStuckAt, 1e-3 / 4);
  cfg.ras.enabled = true;
  cfg.ras.scrub_interval = 5000;
  return cfg;
}

std::vector<FileCell> checkpoint_file_cells() {
  std::vector<FileCell> cells;
  const auto ft = [](const std::string& name) {
    return section4_workloads()[0].make(
        runner::derive_seed(42, "golden/" + name));
  };
  const std::pair<const char*, std::uint64_t> registry[] = {
      {"N", 0x03fd7ca42f679a99ull},
      {"N-1", 0x78cfc59d5fd26465ull},
      {"Live", 0x942189985946b263ull},
      {"nomad", 0xf61e4c6e141e6899ull},
      {"Alloy", 0x00b0d41375af5531ull},
      {"flat-HMA", 0xd75c93e3cb18b451ull},
      {"MemCache", 0x81fa2d4b6ecf1531ull}};
  std::vector<std::string> names;
  for (const auto& [name, digest] : registry) {
    names.emplace_back(name);
    cells.push_back({std::string("FT/") + name, golden_cfg(name), ft(name),
                     digest});
  }
  EXPECT_EQ(names, schemes::scheme_names());
  MemSimConfig oracle = golden_cfg("Live");
  oracle.controller.oracle_hotness = true;
  cells.push_back({"FT/Live/oracle", oracle, ft("Live"),
                   0xb558146ac4d2b4f4ull});
  cells.push_back({"indexer/N-1", golden_cfg("N-1"),
                   make_indexer(runner::derive_seed(42, "ckpt/indexer")),
                   0x033f8d0086d8b0ceull});
  const std::pair<const char*, std::uint64_t> ras[] = {
      {"N-1", 0x83755bb8b11ddfabull},
      {"Live", 0xb143316653ce3b64ull},
      {"nomad", 0x4ac0d062ce4951d1ull},
      {"MemCache", 0xe4557d6098284e8bull},
      {"flat-HMA", 0x7927725c1cba2980ull}};
  for (const auto& [name, digest] : ras)
    cells.push_back({std::string("ras/") + name, ras_cell_cfg(name),
                     make_pgbench(runner::derive_seed(42, "ckpt/pgbench")),
                     digest});
  return cells;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

TEST(SchemeGolden, CheckpointFilesArePinned) {
  const std::string path = ::testing::TempDir() + "hmm_scheme_golden.ckpt";
  bool swap_in_flight = false;
  std::uint64_t fault_events = 0;
  std::uint64_t audits = 0;
  std::uint64_t swap_design_retired = 0;
  for (FileCell& c : checkpoint_file_cells()) {
    SCOPED_TRACE(c.label);
    MemSim sim(c.cfg);
    replay_to_8100(sim, *c.gen);
    if (c.cfg.ras.enabled) {
      // A media rate low enough to keep the run short rarely fails a
      // whole frame, so flag an on-package one that holds data.
      sim.mutable_ras()->flag_frame_for_test(3);
      sim.run_chunk(*c.gen, 2000);
    }
    save_checkpoint(path, CheckpointMeta{0x5EEDull, 8100, true}, *c.gen,
                    sim);
    EXPECT_EQ(content_digest(read_file(path)), c.digest);
    swap_in_flight |= !sim.scheme().background_idle();
    fault_events += sim.injector().events().size();
    audits += sim.auditor().audits();
    if (c.cfg.ras.enabled && sim.scheme().audited_table() != nullptr)
      swap_design_retired += sim.ras_engine()->retired_count();
  }
  std::remove(path.c_str());
  // The matrix is not vacuous: it checkpoints a swap mid-flight, a fault
  // log, audit counters, and a retired frame under a swap design.
  EXPECT_TRUE(swap_in_flight);
  EXPECT_GT(fault_events, 0u);
  EXPECT_GT(audits, 0u);
  EXPECT_GT(swap_design_retired, 0u);
}

// The journal's CELL record of a finished RAS cell, whose result carries
// a fault-event log and a retirement log.
TEST(SchemeGolden, JournalCellBlobIsPinned) {
  MemSim sim(ras_cell_cfg("MemCache"));
  auto gen = make_pgbench(runner::derive_seed(42, "ckpt/pgbench"));
  sim.run_chunk(*gen, 4000);
  sim.mutable_ras()->flag_frame_for_test(3);
  sim.run(*gen, 4000);
  runner::CellResult cell;
  cell.key = "golden/ras/MemCache";
  cell.seed = runner::derive_seed(42, "ckpt/pgbench");
  cell.ok = true;
  cell.status = "ok";
  cell.attempts = 1;
  cell.wall_seconds = 0.25;
  cell.accesses_replayed = 8000;
  cell.accesses_per_sec = 32000.0;
  cell.result = sim.result();
  EXPECT_FALSE(cell.result.fault_events.empty());
  EXPECT_FALSE(cell.result.ras_retirements.empty());
  snap::Writer w;
  runner::encode_cell(w, cell);
  EXPECT_EQ(content_digest(w.buffer()), 0xdb0e156999310373ull);
}

// --- Alloy goldens -----------------------------------------------------------

constexpr const char* kAlloyZooGolden =
    "accesses 40000\n"
    "avg_latency 253.34902500000001\n"
    "avg_read_latency 254.07394146300845\n"
    "avg_write_latency 252.25949565108567\n"
    "avg_on_latency 128.96705405693569\n"
    "avg_off_latency 291.44636034094248\n"
    "p99_latency 512\n"
    "on_package_fraction 0.23447499999999999\n"
    "off_row_hit_rate 0.12311812155056986\n"
    "on_queue_delay 40.657852649536196\n"
    "off_queue_delay 50.079455275791126\n"
    "swaps 0\n"
    "migrated_bytes 1960512\n"
    "demand_bytes_on 600256\n"
    "demand_bytes_off 1959744\n"
    "os_stall_cycles 0\n"
    "end_time 516074\n"
    "faults_injected 0\n"
    "faults_dropped 0\n"
    "chunk_retries 0\n"
    "chunks_dropped 0\n"
    "swap_aborts 0\n"
    "audits 0\n"
    "degraded 0\n"
    "degraded_at 0\n"
    "fault_events 0\n"
    "fault_events_crc 0\n"
    "ras_enabled 0\n"
    "ras.demand_corrected 0\n"
    "ras.demand_uncorrectable 0\n"
    "ras.scrub_probes 0\n"
    "ras.scrub_corrected 0\n"
    "ras.scrub_uncorrectable 0\n"
    "ras.scrub_collisions 0\n"
    "ras.stuck_faults 0\n"
    "ras.frames_retired 0\n"
    "ras.frames_pinned 0\n"
    "ras.evacuations 0\n"
    "ras.evacuation_bytes 0\n"
    "ras.spares_used 0\n"
    "ras_frames_pending 0\n"
    "ras_spares_left 0\n"
    "ras_healthy_frames 0\n"
    "ras_retirements\n"
    "energy_pj 418710528\n"
    "energy_off_only_pj 368640000\n";

constexpr const char* kAlloyRasGolden =
    "accesses 15000\n"
    "avg_latency 14480.392066666667\n"
    "avg_read_latency 14431.406141432253\n"
    "avg_write_latency 14552.319236465361\n"
    "avg_on_latency 620.63325825825825\n"
    "avg_off_latency 17473.452821011673\n"
    "p99_latency 65536\n"
    "on_package_fraction 0.13943333333333333\n"
    "off_row_hit_rate 0.14794098573281453\n"
    "on_queue_delay 524.85923423423424\n"
    "off_queue_delay 17234.041990920883\n"
    "swaps 0\n"
    "migrated_bytes 716480\n"
    "demand_bytes_on 170496\n"
    "demand_bytes_off 789504\n"
    "os_stall_cycles 0\n"
    "end_time 387478\n"
    "faults_injected 32\n"
    "faults_dropped 0\n"
    "chunk_retries 0\n"
    "chunks_dropped 0\n"
    "swap_aborts 0\n"
    "audits 7\n"
    "degraded 0\n"
    "degraded_at 0\n"
    "fault_events 32\n"
    "fault_events_crc 4196675361\n"
    "ras_enabled 1\n"
    "ras.demand_corrected 107\n"
    "ras.demand_uncorrectable 0\n"
    "ras.scrub_probes 0\n"
    "ras.scrub_corrected 0\n"
    "ras.scrub_uncorrectable 0\n"
    "ras.scrub_collisions 0\n"
    "ras.stuck_faults 7\n"
    "ras.frames_retired 4\n"
    "ras.frames_pinned 1\n"
    "ras.evacuations 4\n"
    "ras.evacuation_bytes 1048576\n"
    "ras.spares_used 4\n"
    "ras_frames_pending 0\n"
    "ras_spares_left 0\n"
    "ras_healthy_frames 16383\n"
    "ras_retirements 0@12867 11264@32775 16380@227208 1623@255972\n"
    "energy_pj 288315463.68000001\n"
    "energy_off_only_pj 138240000\n";

// Alloy, pinned before it became a MemCache preset: the RAS-off zoo cell.
TEST(AlloyScheme, GoldenZooCell) {
  MemSim sim(zoo_cfg("Alloy"));
  auto w = make_pgbench(21);
  sim.run(*w, 40000);
  sim.finish();
  EXPECT_EQ(describe(sim.result()), kAlloyZooGolden);
  EXPECT_EQ(tag_store_digest(sim), 0x15aab1766537f813ull);
}

// Alloy under media faults with RAS retirement and the patrol scrub off:
// ras_availability's pgbench/noscrub-r0.001000/Alloy cell at
// HMM_BENCH_SCALE=0.1. The log retires on-package frames (cache-set
// purges) and off-package frames (backing remaps onto spares).
TEST(AlloyScheme, GoldenRasRetirementCell) {
  const std::string key = "ras_availability/pgbench/noscrub-r0.001000/Alloy";
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  cfg.controller.swap_interval = 1000;
  cfg.controller.migration_enabled = true;
  cfg.scheme = "Alloy";
  cfg.audit_interval = 4096;
  cfg.fault.seed = runner::derive_seed(42, key);
  cfg.fault.add(FaultSite::MediaTransient, 1e-3)
      .add(FaultSite::MediaStuckAt, 1e-3 / 4);
  cfg.ras.enabled = true;
  cfg.ras.scrub_interval = 0;
  MemSim sim(cfg);
  auto w = make_pgbench(runner::derive_seed(42, "ras_availability/pgbench"));
  replay(sim, *w, 15000, 30000);
  EXPECT_EQ(describe(sim.result()), kAlloyRasGolden);
  EXPECT_EQ(tag_store_digest(sim), 0x454e4e5e4d6943fcull);
}

// --- zoo behaviour ----------------------------------------------------------

TEST(AlloyScheme, CachesTheHotSetWithoutSwaps) {
  const RunResult r = zoo_replay(zoo_cfg("Alloy"), 40000);
  EXPECT_EQ(r.accesses, 40000u);
  EXPECT_GT(r.on_package_fraction, 0.15);  // pgbench re-touches hot lines
  EXPECT_EQ(r.swaps, 0u);                 // no choreography at all
  EXPECT_GT(r.migrated_bytes, 0u);        // background line fills
  EXPECT_EQ(r.os_stall_cycles, 0u);       // no OS in the loop
}

TEST(AlloySchemeUnit, RepeatAccessHitsAndVictimWritesBack) {
  MemSim sim(zoo_cfg("Alloy"));
  auto& alloy = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
  schemes::LineCache& c = alloy.cache_for_test();
  const PhysAddr a = 4096;
  const PhysAddr conflict = a + c.sets() * c.line_bytes();  // same set
  EXPECT_FALSE(c.present(a));
  EXPECT_FALSE(c.access(a, /*dirty=*/true).hit);   // cold miss, fills
  EXPECT_TRUE(c.access(a, /*dirty=*/false).hit);   // now resident
  const auto lk = c.access(conflict, /*dirty=*/false);
  EXPECT_FALSE(lk.hit);
  EXPECT_TRUE(lk.victim_valid);
  EXPECT_TRUE(lk.victim_dirty);
  EXPECT_EQ(lk.victim_addr, a - a % c.line_bytes());
  EXPECT_TRUE(c.validate().empty());
}

TEST(FlatHmaScheme, PlacesOnceAfterProfileEpochThenNeverMoves) {
  MemSimConfig cfg = zoo_cfg("flat-HMA");
  MemSim sim(cfg);
  auto& hma = dynamic_cast<schemes::FlatHmaScheme&>(sim.scheme());
  auto w = make_pgbench(21);
  sim.run(*w, 500);  // inside the profile epoch
  EXPECT_FALSE(hma.placed());
  EXPECT_DOUBLE_EQ(sim.result().on_package_fraction, 0.0);
  sim.run(*w, 40000);
  sim.finish();
  EXPECT_TRUE(hma.placed());
  const RunResult r = sim.result();
  EXPECT_GT(r.swaps, 0u);  // placements
  EXPECT_EQ(r.migrated_bytes, r.swaps * cfg.controller.geom.page_bytes);
  EXPECT_GT(r.on_package_fraction, 0.3);
  EXPECT_GT(r.os_stall_cycles, 0u);  // one table update per placement
}

TEST(MemCacheScheme, PartitionFollowsTheCacheFractionKnob) {
  MemSimConfig half = zoo_cfg("MemCache");
  const std::uint64_t on = half.controller.geom.on_package_bytes;
  {
    MemSim sim(half);
    auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
    EXPECT_EQ(mc.memory_fraction_bytes(), on / 2);
  }
  MemSimConfig pure_mem = half;
  pure_mem.cache_fraction = 0.0;
  {
    MemSim sim(pure_mem);
    auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
    EXPECT_EQ(mc.memory_fraction_bytes(), on);
  }
  MemSimConfig pure_cache = half;
  pure_cache.cache_fraction = 1.0;
  {
    MemSim sim(pure_cache);
    auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
    EXPECT_EQ(mc.memory_fraction_bytes(), 0u);
  }
}

// The knob is validated, not clamped: NaN used to reach an undefined
// float-to-integer cast.
TEST(MemCacheScheme, RejectsCacheFractionOutsideUnitInterval) {
  for (const double f : {std::nan(""), -0.1, 1.5}) {
    SCOPED_TRACE(f);
    MemSimConfig cfg = zoo_cfg("MemCache");
    cfg.cache_fraction = f;
    try {
      MemSim sim(cfg);
      ADD_FAILURE() << "cache_fraction " << f << " was accepted";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::CheckFailed);
      EXPECT_NE(std::string(e.what()).find("cache_fraction"),
                std::string::npos)
          << e.what();
    }
  }
}

// "Alloy" is the pure-cache preset: the registry overrides whatever
// fraction the caller set.
TEST(AlloyScheme, PresetIgnoresTheCacheFractionKnob) {
  MemSimConfig cfg = zoo_cfg("Alloy");
  cfg.cache_fraction = 0.25;
  MemSim sim(cfg);
  EXPECT_STREQ(sim.scheme().name(), "Alloy");
  auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
  EXPECT_EQ(mc.memory_fraction_bytes(), 0u);
}

TEST(MemCacheScheme, MemoryFractionServesLowAddressesForFree) {
  MemSim sim(zoo_cfg("MemCache"));
  auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
  const Route r = mc.translate(mc.memory_fraction_bytes() - 1);
  EXPECT_EQ(r.region, Region::OnPackage);
  EXPECT_EQ(r.mach, mc.memory_fraction_bytes() - 1);  // identity mapping
  const RunResult run = zoo_replay(zoo_cfg("MemCache"), 40000);
  EXPECT_GT(run.on_package_fraction, 0.1);
  EXPECT_EQ(run.swaps, 0u);
}

// --- snapshot round-trips ---------------------------------------------------

// Interrupted-vs-uninterrupted equivalence, per scheme: run half, save,
// restore into a twin, run both to the end — all deterministic results
// must agree exactly.
void expect_snapshot_roundtrip(const MemSimConfig& cfg) {
  const std::uint64_t n = 30000;
  MemSim a(cfg);
  auto wa = make_pgbench(7);
  a.run_chunk(*wa, n / 2);
  snap::Writer w;
  a.save(w);
  wa->save(w);

  MemSim b(cfg);
  auto wb = make_pgbench(7);
  snap::Reader r(w.buffer());
  b.restore(r);
  wb->restore(r);

  a.run_chunk(*wa, n / 2);
  b.run_chunk(*wb, n / 2);
  a.finish();
  b.finish();
  EXPECT_EQ(describe(a.result()), describe(b.result()));
}

TEST(SchemeSnapshot, EverySchemeRoundTrips) {
  for (const std::string& name : schemes::scheme_names()) {
    SCOPED_TRACE(name);
    expect_snapshot_roundtrip(zoo_cfg(name));
  }
}

// --- auditor integration ----------------------------------------------------

// Both line-cache presets audit their tag store, and the finding names
// the registry scheme.
TEST(SchemeAudit, AuditorCatchesCorruptedAlloyTagStore) {
  for (const std::string name : {"Alloy", "MemCache"}) {
    SCOPED_TRACE(name);
    MemSimConfig cfg = zoo_cfg(name);
    cfg.audit_interval = 100;
    MemSim sim(cfg);
    auto w = make_pgbench(5);
    sim.run(*w, 1000);  // clean prefix: audits pass
    auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
    mc.cache_for_test().corrupt_valid_count_for_test();
    try {
      sim.run(*w, 1000);
      ADD_FAILURE() << "expected SimError(AuditFailed)";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
      EXPECT_NE(std::string(e.what()).find(name + " tag store"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SchemeAudit, AuditorCatchesCorruptedFlatHmaPlacement) {
  MemSimConfig cfg = zoo_cfg("flat-HMA");
  cfg.audit_interval = 100;
  MemSim sim(cfg);
  auto w = make_pgbench(5);
  sim.run(*w, 2000);  // past the profile epoch: placement exists
  auto& hma = dynamic_cast<schemes::FlatHmaScheme&>(sim.scheme());
  hma.corrupt_placement_for_test();
  try {
    sim.run(*w, 1000);
    FAIL() << "expected SimError(AuditFailed)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find("flat-HMA placement"),
              std::string::npos);
  }
}

// Each periodic audit recounts one window of tag blocks, and a valid bit
// flipped behind the counters is invisible to the block counts' sum. So
// each flip is reported at exactly the round whose window covers its
// block, and at no other round of the rotation: a window that never
// advances misses the later flips, and a full recount reports them early.
TEST(SchemeAudit, TagRecountReportsEachFlipAtItsBlocksRound) {
  constexpr std::uint64_t kWindows = fault::AuditWindow::kWindows;
  constexpr std::uint64_t kBlockSets = schemes::LineCache::kBlockSets;
  MemSim sim(zoo_cfg("Alloy"));
  auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
  schemes::LineCache& cache = mc.cache_for_test();
  const std::uint64_t blocks = cache.sets() / kBlockSets;
  ASSERT_EQ(blocks % kWindows, 0u);  // windows of whole blocks
  // First, middle and last block: rounds 0, 8 and 15.
  const std::uint64_t planted[] = {0, blocks / 2, blocks - 1};
  for (const std::uint64_t block : planted)
    cache.flip_valid_bit_for_test(block * kBlockSets + 7);

  fault::InvariantAuditor auditor(&sim.scheme(), /*interval=*/0);
  for (std::uint64_t round = 0; round < kWindows; ++round) {
    SCOPED_TRACE(round);
    std::string due;
    for (const std::uint64_t block : planted)
      if (block * kWindows / blocks == round)
        due = "block " + std::to_string(block) + " ";
    try {
      auditor.audit();
      EXPECT_TRUE(due.empty()) << due << "was not reported";
    } catch (const SimError& e) {
      EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
      EXPECT_FALSE(due.empty()) << "reported early: " << e.what();
      if (!due.empty()) {
        EXPECT_NE(std::string(e.what()).find(due), std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_EQ(auditor.audits(), kWindows);
}

// The rolling audits can leave a corruption unseen for up to kWindows
// audits; finish() closes that gap with one full audit it does not
// count, so a passing run's audit count is unchanged.
TEST(SchemeAudit, FinishReportsAFlipPlantedAfterTheLastAudit) {
  MemSimConfig cfg = zoo_cfg("Alloy");
  cfg.audit_interval = 100;
  MemSim sim(cfg);
  auto w = make_pgbench(5);
  sim.run(*w, 1000);  // clean audits, and a clean finish()
  const std::uint64_t audits = sim.auditor().audits();
  ASSERT_EQ(audits, 10u);
  auto& mc = dynamic_cast<schemes::MemCacheScheme&>(sim.scheme());
  mc.cache_for_test().flip_valid_bit_for_test(mc.cache_for_test().sets() - 1);
  try {
    sim.finish();
    ADD_FAILURE() << "expected SimError(AuditFailed)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.kind(), SimErrorKind::AuditFailed);
    EXPECT_NE(std::string(e.what()).find("Alloy tag store"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sim.auditor().audits(), audits);
}

// --- fault tolerance --------------------------------------------------------

// HotnessCorrupt must stay benign in every scheme (wrong heat accounting
// or a dropped tag entry — never a wrong route or a crash), and the
// table-targeting TableBitFlip site must be a no-op for table-less
// schemes rather than a null dereference.
TEST(SchemeFaults, HotnessCorruptAndTableFlipAreSafeAcrossTheZoo) {
  for (const std::string& name : schemes::scheme_names()) {
    SCOPED_TRACE(name);
    MemSimConfig cfg = zoo_cfg(name);
    cfg.audit_interval = 500;  // audits must keep passing under fire
    cfg.fault.add(FaultSite::HotnessCorrupt, 0.02)
        .add(FaultSite::TableBitFlip, 0.001);
    MemSim sim(cfg);
    auto w = make_pgbench(9);
    RunResult r;
    try {
      sim.run(*w, 20000);
      sim.finish();
      r = sim.result();
    } catch (const SimError& e) {
      // Swap schemes may legitimately detect a flipped table bit as an
      // audit/check failure — that is the structured-surfacing contract.
      const bool has_table = sim.scheme().mutable_table() != nullptr;
      ASSERT_TRUE(has_table) << name << ": " << e.what();
      continue;
    }
    EXPECT_EQ(r.accesses, 20000u);
    EXPECT_GT(r.faults_injected, 0u);
    EXPECT_GT(r.audits, 0u);
  }
}

}  // namespace
}  // namespace hmm
