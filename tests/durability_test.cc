// Durability layer tests: checkpoint/restore bit-identity against an
// uninterrupted run, checkpoint file integrity, the sweep journal
// (append / recover / torn tail), --resume and fresh-sweep semantics,
// a real SIGTERM under fork isolation, crash-isolated cells, and the
// atomic results artifact.
#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hh"
#include "describe_result.hh"
#include "fault/fault_injector.hh"
#include "fault/sim_error.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/supervisor.hh"
#include "sim/checkpoint.hh"
#include "sim/replay.hh"
#include "trace/workloads.hh"

namespace hmm::runner {
namespace {

[[nodiscard]] std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "hmm_durability_" + name;
}

[[nodiscard]] ExperimentSpec sim_spec(const std::string& key) {
  ExperimentSpec s;
  s.key = key;
  s.workload = WorkloadInfo{"pgbench", "", 0, make_pgbench};
  s.config.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  s.config.scheme = "Live";
  s.config.controller.migration_enabled = true;
  s.config.controller.swap_interval = 500;
  s.accesses = 8000;
  return s;
}

// Replays `spec` through the runner's replay loop, but force-"crashes"
// at the chunk boundary `kill_at`: the hook there saves a checkpoint as
// the runner's hook does, hands the sim to `at_kill`, and stops the run. A
// second, freshly constructed sim+workload pair then restores the
// checkpoint and finishes the run. The result must be bit-identical to
// the one-shot ExperimentRunner::replay().
[[nodiscard]] RunResult run_killed_and_resumed(
    const ExperimentSpec& spec, std::uint64_t seed, std::uint64_t kill_at,
    const std::string& path,
    const std::function<void(const MemSim&)>& at_kill = {}) {
  const auto warm = static_cast<std::uint64_t>(
      static_cast<double>(spec.accesses) * spec.warmup_fraction);
  const std::uint64_t fp =
      checkpoint_fingerprint(spec.key, seed, spec.accesses);

  // First life: run until kill_at, checkpoint, "die".
  {
    MemSim sim(spec.config);
    auto gen = spec.workload.make(seed);
    const bool completed = replay(
        sim, *gen, warm, spec.accesses, CheckpointMeta{fp, 0, false},
        [&](const CheckpointMeta& at) {
          if (at.accesses_done < kill_at) return true;
          EXPECT_EQ(at.accesses_done, kill_at)
              << "the kill point is not a chunk boundary";
          save_checkpoint(path, at, *gen, sim);
          if (at_kill) at_kill(sim);
          return false;
        });
    EXPECT_FALSE(completed) << "the run ended before the kill point";
  }

  // Second life: fresh objects, restore, finish.
  MemSim sim(spec.config);
  auto gen = spec.workload.make(seed);
  const auto at = load_checkpoint(path, fp, spec.accesses, *gen, sim);
  EXPECT_TRUE(at.has_value());
  EXPECT_TRUE(replay(sim, *gen, warm, spec.accesses,
                     at.value_or(CheckpointMeta{})));
  remove_checkpoint(path);
  return sim.result();
}

TEST(Checkpoint, KillAndResumeIsBitIdenticalToUninterruptedRun) {
  const ExperimentSpec spec = sim_spec("durability/bit-identity");
  const std::uint64_t seed = derive_seed(42, spec.key);
  const RunResult reference = ExperimentRunner::replay(spec, seed);
  const std::string path = temp_path("bit_identity.ckpt");

  // Kill points: mid-warm-up, at the warm-up boundary (just after the
  // reset), and twice in the measured phase (mid-swap activity at
  // interval 500).
  for (const std::uint64_t kill_at : {1024ull, 4000ull, 5024ull, 7072ull}) {
    SCOPED_TRACE(kill_at);
    const RunResult resumed =
        run_killed_and_resumed(spec, seed, kill_at, path);
    EXPECT_EQ(describe(resumed), describe(reference));
  }
}

// Degraded mode is a checkpointable state: with every swap aborted by the
// injector, the engine exhausts kDegradeAfterAborts and freezes the table
// at its last valid (post-rollback) mapping. A run killed *after* that
// point checkpoints the frozen table + degraded flags, and the resumed
// run must replay the rest of the degraded execution bit-identically.
TEST(Checkpoint, DegradedModeRunResumesBitIdentically) {
  ExperimentSpec spec = sim_spec("durability/degraded");
  const std::uint64_t seed = derive_seed(42, spec.key);
  spec.config.fault.seed = seed;
  spec.config.fault.add(fault::FaultSite::SwapAbort, 1.0);

  const RunResult reference = ExperimentRunner::replay(spec, seed);
  ASSERT_TRUE(reference.degraded)
      << "every swap aborted but the engine never degraded";
  ASSERT_GT(reference.swap_aborts, 0u);

  const std::string path = temp_path("degraded.ckpt");
  for (const std::uint64_t kill_at : {6048ull, 7072ull}) {
    SCOPED_TRACE(kill_at);
    const RunResult resumed = run_killed_and_resumed(
        spec, seed, kill_at, path, [](const MemSim& sim) {
          EXPECT_TRUE(sim.result().degraded)
              << "the kill point checkpoints a non-degraded sim";
        });
    EXPECT_EQ(describe(resumed), describe(reference));
    EXPECT_TRUE(resumed.degraded);
  }
}

// Nomad's shadow-copy transaction state (table shadow bitmaps, the
// wandering hole, the engine's pass counter and re-copy offsets) rides
// the same snapshot format: a run SIGKILLed mid-transaction restores and
// finishes bit-identically to the uninterrupted run.
TEST(Checkpoint, NomadMidTransactionKillResumesBitIdentically) {
  ExperimentSpec spec = sim_spec("durability/nomad");
  spec.config.scheme = "nomad";
  const std::uint64_t seed = derive_seed(42, spec.key);

  const RunResult reference = ExperimentRunner::replay(spec, seed);
  ASSERT_GT(reference.swaps, 0u)
      << "no migrations: the kill points cannot land mid-transaction";

  const std::string path = temp_path("nomad.ckpt");
  // Kill points in the measured phase (migration interval 500,
  // multi-thousand-cycle copies), each inside a transaction.
  for (const std::uint64_t kill_at : {5024ull, 6048ull, 7072ull}) {
    SCOPED_TRACE(kill_at);
    const RunResult resumed = run_killed_and_resumed(
        spec, seed, kill_at, path, [](const MemSim& sim) {
          EXPECT_FALSE(sim.scheme().background_idle())
              << "no transaction in flight at the kill point";
        });
    EXPECT_EQ(describe(resumed), describe(reference));
  }
}

TEST(Checkpoint, MissingFileIsNulloptAndWrongFingerprintThrows) {
  const ExperimentSpec spec = sim_spec("durability/fingerprint");
  const std::uint64_t seed = derive_seed(42, spec.key);
  const std::string path = temp_path("fingerprint.ckpt");
  std::remove(path.c_str());

  MemSim sim(spec.config);
  auto gen = spec.workload.make(seed);
  const std::uint64_t fp =
      checkpoint_fingerprint(spec.key, seed, spec.accesses);
  EXPECT_FALSE(
      load_checkpoint(path, fp, spec.accesses, *gen, sim).has_value());

  sim.run_chunk(*gen, 512);
  save_checkpoint(path, CheckpointMeta{fp, 512, false}, *gen, sim);

  MemSim other(spec.config);
  auto other_gen = spec.workload.make(seed);
  EXPECT_THROW((void)load_checkpoint(path, fp + 1, spec.accesses, *other_gen,
                                     other),
               fault::SimError);
  // A truncated file is corruption, not "missing".
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream body;
    body << is.rdbuf();
    const std::string cut = body.str().substr(0, body.str().size() / 2);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(cut.data(), static_cast<std::streamsize>(cut.size()));
  }
  EXPECT_THROW(
      (void)load_checkpoint(path, fp, spec.accesses, *other_gen, other),
      fault::SimError);
  std::remove(path.c_str());
}

// A checkpoint written under an older section layout is refused by its
// format version, before any section is parsed.
TEST(Checkpoint, OlderFormatVersionIsRejected) {
  const ExperimentSpec spec = sim_spec("durability/version");
  const std::uint64_t seed = derive_seed(42, spec.key);
  const std::string path = temp_path("version.ckpt");
  const std::uint64_t fp =
      checkpoint_fingerprint(spec.key, seed, spec.accesses);
  {
    MemSim sim(spec.config);
    auto gen = spec.workload.make(seed);
    sim.run_chunk(*gen, 256);
    save_checkpoint(path, CheckpointMeta{fp, 256, false}, *gen, sim);
  }
  // Version 2 predates the Alloy scheme writing MemCache's section.
  for (const char version : {1, 2}) {
    SCOPED_TRACE(static_cast<int>(version));
    {
      // The u32 after the magic is the format version, little-endian.
      std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(4);
      const char v[4] = {version, 0, 0, 0};
      f.write(v, sizeof v);
    }
    MemSim sim(spec.config);
    auto gen = spec.workload.make(seed);
    try {
      (void)load_checkpoint(path, fp, spec.accesses, *gen, sim);
      ADD_FAILURE() << "an older checkpoint was accepted";
    } catch (const fault::SimError& e) {
      EXPECT_EQ(e.kind(), fault::SimErrorKind::Snapshot);
      EXPECT_NE(std::string(e.what()).find(
                    "format version " + std::to_string(version) +
                    " is not supported"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

// --- journal ----------------------------------------------------------------

[[nodiscard]] CellResult sample_cell(const std::string& key) {
  CellResult c;
  c.key = key;
  c.seed = 0xFEEDFACEull;
  c.ok = true;
  c.status = "ok";
  c.attempts = 2;
  c.wall_seconds = 1.5;
  c.accesses_replayed = 8192;
  c.accesses_per_sec = 8192 / 0.75;  // the second of two attempts
  c.result.accesses = 4096;
  c.result.avg_latency = 123.456;
  c.result.p99_latency = 999.0;
  c.result.swaps = 17;
  c.result.migrated_bytes = 17u * 256 * 1024;
  c.result.degraded = true;
  c.result.degraded_at = 31337;
  c.result.fault_events.push_back(
      fault::FaultEvent{fault::FaultSite::MigrationChunkDrop, 7, 3});
  c.result.energy_pj = 1e12;
  return c;
}

TEST(Journal, EncodeDecodeCellIsLossless) {
  const CellResult a = sample_cell("fig13/FT/64KB");
  snap::Writer w;
  encode_cell(w, a);
  snap::Reader r(w.buffer());
  const CellResult b = decode_cell(r);
  EXPECT_EQ(b.key, a.key);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.ok, a.ok);
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.attempts, a.attempts);
  EXPECT_EQ(b.wall_seconds, a.wall_seconds);
  EXPECT_EQ(b.accesses_replayed, a.accesses_replayed);
  EXPECT_EQ(b.accesses_per_sec, a.accesses_per_sec);
  EXPECT_EQ(describe(b.result), describe(a.result));
  ASSERT_EQ(b.result.fault_events.size(), 1u);
  EXPECT_EQ(b.result.fault_events[0].site,
            fault::FaultSite::MigrationChunkDrop);
  EXPECT_EQ(b.result.fault_events[0].opportunity, 7u);
}

TEST(Journal, AppendRecoverAndToleratesATornTail) {
  const std::string path = temp_path("journal.jsonl");
  std::remove(path.c_str());
  {
    Journal j(path);
    EXPECT_TRUE(j.enabled());
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_TRUE(j.append(sample_cell("sweep/a")));
    EXPECT_TRUE(j.append(sample_cell("sweep/b")));
  }
  {
    Journal j(path);
    ASSERT_EQ(j.recovered().size(), 2u);
    EXPECT_EQ(j.recovered()[0].key, "sweep/a");
    EXPECT_EQ(j.recovered()[1].key, "sweep/b");
    EXPECT_EQ(describe(j.recovered()[0].result),
              describe(sample_cell("x").result));
  }
  // Tear the second line mid-blob (a crash while an old implementation
  // appended in place); recovery must stop at the damage, keeping line 1.
  {
    std::ifstream is(path);
    std::stringstream body;
    body << is.rdbuf();
    std::string cut = body.str();
    cut.resize(cut.size() - 20);
    std::ofstream os(path, std::ios::trunc);
    os << cut;
  }
  {
    Journal j(path);
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].key, "sweep/a");
  }
  std::remove(path.c_str());
}

TEST(Journal, SanitizeKeyMakesFilesystemSafeStems) {
  EXPECT_EQ(sanitize_key("fig13/FT/64KB"), "fig13_FT_64KB");
  EXPECT_EQ(sanitize_key("a b\tc"), "a_b_c");
  EXPECT_EQ(sanitize_key(""), "cell");
}

// --- runner: interrupt, resume, crash isolation -----------------------------

TEST(RunnerDurability, InterruptStopsTheSweepAndResumeFinishesIt) {
  clear_interrupt();
  const std::string journal = temp_path("resume.journal");
  std::remove(journal.c_str());

  std::vector<ExperimentSpec> grid(3);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].key = "cell" + std::to_string(i);
    grid[i].job = [i](std::uint64_t) {
      if (i == 0) request_interrupt();  // SIGINT lands mid-sweep
      RunResult r;
      r.accesses = 100 + i;
      return r;
    };
  }
  const std::vector<CellResult> first =
      ExperimentRunner({.jobs = 1, .journal_path = journal}).run(grid);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_TRUE(first[0].ok);  // completed before the flag was polled
  EXPECT_EQ(first[1].status, "interrupted");
  EXPECT_EQ(first[2].status, "interrupted");
  EXPECT_TRUE(std::filesystem::exists(journal));  // kept: work remains

  // Resume: cell0 must come from the journal, never rerun — poison it.
  clear_interrupt();
  grid[0].job = [](std::uint64_t) -> RunResult {
    throw std::runtime_error("resumed cell was re-executed");
  };
  const std::vector<CellResult> second =
      ExperimentRunner({.jobs = 1, .journal_path = journal, .resume = true})
          .run(grid);
  ASSERT_EQ(second.size(), 3u);
  EXPECT_TRUE(second[0].ok);
  EXPECT_TRUE(second[0].resumed);
  EXPECT_EQ(second[0].result.accesses, 100u);  // recorded metrics, verbatim
  EXPECT_TRUE(second[1].ok);
  EXPECT_FALSE(second[1].resumed);
  EXPECT_TRUE(second[2].ok);
  // Sweep complete: the journal has served its purpose and is gone.
  EXPECT_FALSE(std::filesystem::exists(journal));
}

// A sweep run without --resume starts from an empty journal. Otherwise
// sweep 1's row for a cell would ride along into sweep 2's journal, and
// resuming sweep 2 would replay it in place of sweep 2's own cell.
TEST(RunnerDurability, FreshSweepDoesNotInheritAStaleJournal) {
  clear_interrupt();
  const std::string journal = temp_path("fresh.journal");
  std::remove(journal.c_str());
  const auto cell = [](const std::string& key, std::uint64_t accesses,
                       bool interrupt_after) {
    ExperimentSpec s;
    s.key = key;
    s.job = [accesses, interrupt_after](std::uint64_t) {
      if (interrupt_after) request_interrupt();
      RunResult r;
      r.accesses = accesses;
      return r;
    };
    return s;
  };

  // Sweep 1 records A, then stops before B.
  const std::vector<CellResult> first =
      ExperimentRunner({.jobs = 1, .journal_path = journal})
          .run({cell("a", 1, true), cell("b", 2, false)});
  ASSERT_EQ(first.size(), 2u);
  ASSERT_TRUE(first[0].ok);
  ASSERT_EQ(first[1].status, "interrupted");

  // Sweep 2 runs fresh on changed cells: it finishes B and stops before A.
  clear_interrupt();
  const std::vector<ExperimentSpec> changed{cell("b", 20, true),
                                            cell("a", 10, false)};
  const std::vector<CellResult> second =
      ExperimentRunner({.jobs = 1, .journal_path = journal}).run(changed);
  ASSERT_EQ(second.size(), 2u);
  ASSERT_TRUE(second[0].ok);
  ASSERT_EQ(second[1].status, "interrupted");

  // Resuming sweep 2 replays its own B and runs its own A.
  clear_interrupt();
  const std::vector<CellResult> resumed =
      ExperimentRunner({.jobs = 1, .journal_path = journal, .resume = true})
          .run(changed);
  ASSERT_EQ(resumed.size(), 2u);
  EXPECT_TRUE(resumed[0].resumed);
  EXPECT_EQ(resumed[0].result.accesses, 20u);
  EXPECT_FALSE(resumed[1].resumed) << "sweep 1's row for A was replayed";
  EXPECT_EQ(resumed[1].result.accesses, 10u);
  EXPECT_FALSE(std::filesystem::exists(journal));
}

// Nor does a fresh sweep restore a checkpoint an earlier sweep left for
// one of its cells (here the same key at half the trace length, so the
// fingerprint no longer matches). Files of no cell in the grid stay.
TEST(RunnerDurability, FreshSweepDropsItsCellsStaleCheckpoints) {
  clear_interrupt();
  const std::string dir = temp_path("fresh_ckpt");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ExperimentSpec spec = sim_spec("fresh/ckpt");
  const std::uint64_t seed = derive_seed(42, spec.key);
  const std::string own = dir + "/" + sanitize_key(spec.key) + ".ckpt";
  const std::string foreign = dir + "/other.ckpt";
  {
    MemSim sim(spec.config);
    auto gen = spec.workload.make(seed);
    sim.run_chunk(*gen, 512);
    const std::uint64_t fp =
        checkpoint_fingerprint(spec.key, seed, spec.accesses / 2);
    save_checkpoint(own, CheckpointMeta{fp, 512, false}, *gen, sim);
  }
  std::filesystem::copy_file(own, foreign);

  const std::vector<CellResult> out =
      ExperimentRunner({.jobs = 1, .checkpoint_dir = dir}).run({spec});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ok) << out[0].error;
  EXPECT_EQ(out[0].attempts, 1u);
  EXPECT_EQ(describe(out[0].result),
            describe(ExperimentRunner::replay(spec, seed)));
  EXPECT_FALSE(std::filesystem::exists(own));
  EXPECT_TRUE(std::filesystem::exists(foreign));
  std::filesystem::remove_all(dir);
}

// A checkpoint's progress record must lie within the cell's access
// budget. The fingerprint binds the budget, not the progress, so a
// record of 9,000 of 8,000 references resumed as "ok" with 512 measured
// accesses and an underflowed replay count; it is refused as a
// fingerprint mismatch is.
TEST(RunnerDurability, CheckpointPastTheAccessBudgetIsRefused) {
  clear_interrupt();
  const std::string dir = temp_path("past_budget");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const ExperimentSpec spec = sim_spec("durability/past-budget");
  const std::uint64_t seed = derive_seed(42, spec.key);
  {
    MemSim sim(spec.config);
    auto gen = spec.workload.make(seed);
    sim.run_chunk(*gen, 512);
    const std::uint64_t fp =
        checkpoint_fingerprint(spec.key, seed, spec.accesses);
    save_checkpoint(dir + "/" + sanitize_key(spec.key) + ".ckpt",
                    CheckpointMeta{fp, 9000, false}, *gen, sim);
  }

  const std::vector<CellResult> out =
      ExperimentRunner({.jobs = 1, .resume = true, .checkpoint_dir = dir})
          .run({spec});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok);
  EXPECT_EQ(out[0].status, "failed");
  EXPECT_NE(out[0].error.find("[snapshot] checkpoint progress 9000 is past "
                              "the cell's 8000-access budget"),
            std::string::npos)
      << out[0].error;
  std::filesystem::remove_all(dir);
}

// A real SIGTERM under fork isolation. Cell A (a replay) signals the
// sweep's process from its workload factory; the supervisor forwards
// SIGTERM to both running children, so A checkpoints and stops, B (a job)
// finishes, and C and D never start. --resume then finishes all four.
// Signals and a pipe order the steps, not timing: B writes a byte once
// its job runs, and A signals only after reading it, so both slots are
// busy and B's child was forked before the flag rose.
TEST(RunnerDurability, SigtermUnderIsolationCheckpointsAndResumes) {
  clear_interrupt();
  install_interrupt_handlers();
  const std::string dir = temp_path("sigterm");
  std::filesystem::remove_all(dir);
  const RunnerOptions opts{.jobs = 2,
                           .journal_path = dir + "/sweep.journal",
                           .checkpoint_dir = dir + "/ckpt"};
  int b_running[2];
  ASSERT_EQ(::pipe(b_running), 0);
  const int read_fd = b_running[0];
  const int write_fd = b_running[1];
  const auto await_interrupt = [] {
    for (int ms = 0; ms < 20'000 && !interrupt_requested(); ++ms)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  const pid_t sweep_pid = ::getpid();
  auto signal_sweep = std::make_shared<bool>(true);

  std::vector<ExperimentSpec> grid;
  for (const char* key : {"sigterm/a", "sigterm/b", "sigterm/c", "sigterm/d"})
    grid.push_back(sim_spec(key));
  grid[0].workload.make = [signal_sweep, sweep_pid, read_fd,
                           await_interrupt](std::uint64_t seed) {
    if (*signal_sweep) {
      pollfd ready{read_fd, POLLIN, 0};
      char byte = 0;
      if (::poll(&ready, 1, 20'000) == 1 && ::read(read_fd, &byte, 1) == 1)
        ::kill(sweep_pid, SIGTERM);
      await_interrupt();
    }
    return make_pgbench(seed);
  };
  grid[1].job = [write_fd, await_interrupt](std::uint64_t) {
    if (::write(write_fd, "b", 1) == 1) await_interrupt();
    RunResult r;
    r.accesses = 7;
    return r;
  };
  for (const std::uint64_t i : {2u, 3u}) {
    grid[i].job = [i](std::uint64_t) {
      RunResult r;
      r.accesses = 100 + i;
      return r;
    };
  }

  const std::vector<CellResult> first = ExperimentRunner(opts).run(grid);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0].status, "interrupted");
  EXPECT_NE(first[0].error.find("checkpoint saved"), std::string::npos)
      << first[0].error;
  EXPECT_EQ(first[1].status, "ok") << first[1].error;
  for (const std::size_t i : {2u, 3u}) {
    EXPECT_EQ(first[i].status, "interrupted") << grid[i].key;
    EXPECT_EQ(first[i].attempts, 0u) << grid[i].key;
  }
  const std::string ckpt_a =
      opts.checkpoint_dir + "/" + sanitize_key(grid[0].key) + ".ckpt";
  EXPECT_TRUE(std::filesystem::exists(ckpt_a));
  EXPECT_TRUE(std::filesystem::exists(opts.journal_path));

  // Resume: A no longer signals, and B must come from the journal.
  clear_interrupt();
  *signal_sweep = false;
  grid[1].job = [](std::uint64_t) -> RunResult {
    throw std::runtime_error("resumed cell was re-executed");
  };
  RunnerOptions resuming = opts;
  resuming.resume = true;
  const std::vector<CellResult> second = ExperimentRunner(resuming).run(grid);
  ASSERT_EQ(second.size(), 4u);
  for (const CellResult& c : second)
    EXPECT_TRUE(c.ok) << c.key << ": " << c.error;
  EXPECT_TRUE(second[1].resumed);
  EXPECT_EQ(second[1].result.accesses, 7u);
  EXPECT_EQ(describe(second[0].result),
            describe(ExperimentRunner::replay(grid[0], second[0].seed)));
  EXPECT_FALSE(std::filesystem::exists(opts.journal_path));
  EXPECT_TRUE(std::filesystem::is_empty(opts.checkpoint_dir));
  ::close(read_fd);
  ::close(write_fd);
  std::filesystem::remove_all(dir);
}

TEST(RunnerDurability, CrashingCellIsIsolatedAndSiblingsComplete) {
  clear_interrupt();

  std::vector<ExperimentSpec> grid(3);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].key = "cell" + std::to_string(i);
    grid[i].job = [i](std::uint64_t) {
      // SIGKILL rather than SIGSEGV: sanitizer builds install a SEGV
      // handler that turns the crash into a plain exit(1), which would
      // misclassify the cell as "error". Nothing intercepts SIGKILL, so
      // the supervisor sees a signal death in every build flavor (it is
      // also exactly what an OOM kill looks like).
      if (i == 1) std::raise(SIGKILL);  // the cell dies, not the sweep
      RunResult r;
      r.accesses = 100 + i;
      return r;
    };
  }
  const std::vector<CellResult> out = ExperimentRunner({.jobs = 2}).run(grid);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok);
  EXPECT_EQ(out[0].result.accesses, 100u);
  EXPECT_FALSE(out[1].ok);
  EXPECT_EQ(out[1].status, "crashed");
  EXPECT_NE(out[1].error.find("signal"), std::string::npos);
  EXPECT_TRUE(out[2].ok);
  EXPECT_EQ(out[2].result.accesses, 102u);
}

// --jobs 1 runs the cells inline in this process, --jobs 2 each in a
// fork()ed child; the metrics must not tell them apart.
TEST(RunnerDurability, ProcessIsolationMatchesInProcessResults) {
  clear_interrupt();

  std::vector<ExperimentSpec> grid;
  grid.push_back(sim_spec("durability/iso/a"));
  grid.push_back(sim_spec("durability/iso/b"));
  for (ExperimentSpec& s : grid) s.accesses = 3000;

  const std::vector<CellResult> in_process =
      ExperimentRunner({.jobs = 1}).run(grid);
  const std::vector<CellResult> isolated =
      ExperimentRunner({.jobs = 2}).run(grid);
  ASSERT_EQ(isolated.size(), in_process.size());
  for (std::size_t i = 0; i < isolated.size(); ++i) {
    SCOPED_TRACE(grid[i].key);
    EXPECT_TRUE(in_process[i].ok) << in_process[i].error;
    EXPECT_TRUE(isolated[i].ok) << isolated[i].error;
    EXPECT_EQ(isolated[i].seed, in_process[i].seed);
    EXPECT_EQ(isolated[i].accesses_replayed, grid[i].accesses);
    EXPECT_GT(isolated[i].accesses_per_sec, 0.0);
    EXPECT_EQ(describe(isolated[i].result), describe(in_process[i].result));
  }
}

// --- atomic results artifact ------------------------------------------------

TEST(ResultSinkDurability, ArtifactIsWrittenAtomically) {
  const std::string dir = temp_path("results");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("HMM_RESULTS_DIR", dir.c_str(), 1), 0);

  ResultSink sink("durability_bench");
  const std::vector<CellResult> cells{sample_cell("sweep/a")};
  const std::string path = sink.write_json(cells);
  unsetenv("HMM_RESULTS_DIR");

  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // renamed away
  std::ifstream is(path);
  std::stringstream body;
  body << is.rdbuf();
  const std::string json = body.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
  // v4: wall-clock throughput, per cell and sweep-wide.
  EXPECT_NE(json.find("\"accesses_per_sec\""), std::string::npos);
  EXPECT_NE(json.find("\"accesses_per_sec_total\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hmm::runner
