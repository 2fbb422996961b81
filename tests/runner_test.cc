// Runner subsystem tests: the determinism contract (jobs=1 == jobs=8,
// bit-identical), failure isolation (a throwing job becomes a failed cell,
// the sweep completes), seed derivation, and the JSON writer's output
// format.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/units.hh"
#include "describe_result.hh"
#include "fault/sim_error.hh"
#include "runner/json.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "trace/workloads.hh"

namespace hmm::runner {
namespace {

// --- seed derivation --------------------------------------------------------

TEST(DeriveSeed, DependsOnlyOnBaseSeedAndKey) {
  EXPECT_EQ(derive_seed(42, "fig13/FT/64KB"), derive_seed(42, "fig13/FT/64KB"));
  EXPECT_NE(derive_seed(42, "fig13/FT/64KB"), derive_seed(42, "fig13/FT/4KB"));
  EXPECT_NE(derive_seed(42, "fig13/FT/64KB"), derive_seed(43, "fig13/FT/64KB"));
  EXPECT_NE(derive_seed(0, ""), derive_seed(1, ""));
}

// --- runner determinism -----------------------------------------------------

// A 3x3 grid (3 pages x 3 swap intervals) over a scaled-down Section IV
// geometry; small trace so the whole matrix replays twice in seconds.
[[nodiscard]] std::vector<ExperimentSpec> small_grid() {
  WorkloadInfo w{"pgbench", "", 0, make_pgbench};
  std::vector<ExperimentSpec> grid;
  for (const std::uint64_t page : {64 * KiB, 256 * KiB, 1 * MiB}) {
    for (const std::uint64_t interval : {500ull, 1000ull, 4000ull}) {
      ExperimentSpec s;
      s.key = "test/" + format_size(page) + "/i" + std::to_string(interval);
      s.seed_key = "test/pgbench";
      s.workload = w;
      s.config.controller.geom = Geometry{4 * GiB, 512 * MiB, page, 4 * KiB};
      s.config.scheme = "Live";
      s.config.controller.migration_enabled = true;
      s.config.controller.swap_interval = interval;
      s.accesses = 6000;
      grid.push_back(std::move(s));
    }
  }
  return grid;
}

TEST(ExperimentRunner, SerialAndParallelAreBitIdentical) {
  const std::vector<ExperimentSpec> grid = small_grid();
  ExperimentRunner serial({.jobs = 1});
  ExperimentRunner parallel({.jobs = 8});
  const std::vector<CellResult> a = serial.run(grid);
  const std::vector<CellResult> b = parallel.run(grid);
  ASSERT_EQ(a.size(), grid.size());
  ASSERT_EQ(b.size(), grid.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(grid[i].key);
    EXPECT_TRUE(a[i].ok) << a[i].error;
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(describe(a[i].result), describe(b[i].result));
  }
  // Cells sharing a seed_key replay one stream; distinct configs still
  // produce distinct dynamics.
  EXPECT_EQ(a[0].seed, a[1].seed);
  EXPECT_NE(a[0].result.swaps, a[2].result.swaps);
}

TEST(ExperimentRunner, ResultsComeBackInGridOrder) {
  std::vector<ExperimentSpec> grid(16);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].key = "cell" + std::to_string(i);
    grid[i].job = [i](std::uint64_t) {
      // Reverse-staggered sleeps force out-of-order completion.
      std::this_thread::sleep_for(std::chrono::milliseconds(16 - i));
      RunResult r;
      r.accesses = i;
      return r;
    };
  }
  const std::vector<CellResult> out = ExperimentRunner({.jobs = 8}).run(grid);
  ASSERT_EQ(out.size(), grid.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].key, grid[i].key);
    EXPECT_EQ(out[i].result.accesses, i);
  }
}

TEST(ExperimentRunner, ThrowingJobIsAFailedCellNotADeadlock) {
  std::vector<ExperimentSpec> grid(6);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].key = "cell" + std::to_string(i);
    if (i == 3) {
      grid[i].job = [](std::uint64_t) -> RunResult {
        throw std::runtime_error("boom");
      };
    } else {
      grid[i].job = [](std::uint64_t) { return RunResult{}; };
    }
  }
  const std::vector<CellResult> out = ExperimentRunner({.jobs = 4}).run(grid);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(out[i].ok);
      EXPECT_EQ(out[i].error, "boom");
    } else {
      EXPECT_TRUE(out[i].ok);
    }
  }
}

TEST(ExperimentRunner, Jobs1RunsInlineOnTheCallingThread) {
  std::vector<ExperimentSpec> grid(2);
  std::vector<std::thread::id> ran_on;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].key = "cell" + std::to_string(i);
    grid[i].job = [&ran_on](std::uint64_t) {
      ran_on.push_back(std::this_thread::get_id());
      return RunResult{};
    };
  }
  (void)ExperimentRunner({.jobs = 1}).run(grid);
  ASSERT_EQ(ran_on.size(), 2u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_EQ(ran_on[1], std::this_thread::get_id());
}

TEST(ExperimentRunner, ObserverSeesEveryCellAndTheSummary) {
  struct Recorder : ProgressObserver {
    std::size_t started = 0, cells = 0;
    double elapsed = -1;
    std::uint64_t wall_count = 0;
    void on_start(std::size_t total, unsigned) override { started = total; }
    void on_cell_done(const CellResult&, std::size_t, std::size_t) override {
      ++cells;
    }
    void on_finish(const RunningStat& wall, double e) override {
      wall_count = wall.count();
      elapsed = e;
    }
  } rec;
  std::vector<ExperimentSpec> grid(5);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i].key = "cell" + std::to_string(i);
    grid[i].job = [](std::uint64_t) { return RunResult{}; };
  }
  (void)ExperimentRunner({.jobs = 3, .base_seed = 42, .observer = &rec})
      .run(grid);
  EXPECT_EQ(rec.started, 5u);
  EXPECT_EQ(rec.cells, 5u);
  EXPECT_EQ(rec.wall_count, 5u);
  EXPECT_GE(rec.elapsed, 0.0);
}

// --- failure classification, retry, per-cell deadline -----------------------

TEST(ExperimentRunner, FailedCellRetriesOnceWithTheIdenticalSeed) {
  std::vector<ExperimentSpec> grid(1);
  grid[0].key = "flaky";
  auto seeds = std::make_shared<std::vector<std::uint64_t>>();
  grid[0].job = [seeds](std::uint64_t seed) -> RunResult {
    seeds->push_back(seed);
    if (seeds->size() == 1) throw std::runtime_error("transient");
    return RunResult{};
  };
  const std::vector<CellResult> out = ExperimentRunner({.jobs = 1}).run(grid);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].ok);
  EXPECT_EQ(out[0].status, "ok");
  EXPECT_EQ(out[0].attempts, 2u);
  ASSERT_EQ(seeds->size(), 2u);
  EXPECT_EQ((*seeds)[0], (*seeds)[1]);  // the retry replays, not reseeds
}

TEST(ExperimentRunner, SimErrorTimeoutIsClassifiedAsTimeout) {
  std::vector<ExperimentSpec> grid(2);
  grid[0].key = "slow";
  grid[0].job = [](std::uint64_t) -> RunResult {
    throw fault::SimError(fault::SimErrorKind::Timeout, "budget spent");
  };
  grid[1].key = "wedged";
  grid[1].job = [](std::uint64_t) -> RunResult {
    throw fault::SimError(fault::SimErrorKind::Watchdog, "cannot advance");
  };
  const std::vector<CellResult> out = ExperimentRunner({.jobs = 1}).run(grid);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].status, "timeout");
  EXPECT_EQ(out[0].attempts, 2u);  // a timeout still earns one retry
  EXPECT_EQ(out[1].status, "failed");
  EXPECT_NE(out[1].error.find("[watchdog]"), std::string::npos);
}

TEST(ExperimentRunner, CellTimeoutOptionBoundsARealReplay) {
  // A real (non-job) cell with a nanosecond budget: the MemSim deadline
  // fires and the runner reports status "timeout", not a hang.
  ExperimentSpec s;
  s.key = "deadline";
  s.workload = WorkloadInfo{"pgbench", "", 0, make_pgbench};
  s.config.controller.geom = Geometry{4 * GiB, 512 * MiB, 256 * KiB, 4 * KiB};
  s.config.scheme = "Live";
  s.config.controller.migration_enabled = true;
  s.config.controller.swap_interval = 1000;
  s.accesses = 40000;
  const std::vector<CellResult> out =
      ExperimentRunner({.jobs = 1, .cell_timeout_seconds = 1e-9}).run({s});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].ok);
  EXPECT_EQ(out[0].status, "timeout");
  EXPECT_EQ(out[0].attempts, 2u);  // the retry hits the same deadline
  EXPECT_NE(out[0].error.find("[timeout]"), std::string::npos);
}

// Simulator throughput counts every reference the cell replayed, warm-up
// included, over that attempt's wall time: a 0.5-warm-up cell measures
// only half its references, yet accesses_per_sec covers all of them.
TEST(ExperimentRunner, AccessesPerSecCountsTheWarmUp) {
  std::vector<ExperimentSpec> grid = small_grid();
  grid.resize(1);
  ASSERT_EQ(grid[0].warmup_fraction, 0.5);
  const std::vector<CellResult> out = ExperimentRunner({.jobs = 1}).run(grid);
  ASSERT_EQ(out.size(), 1u);
  const CellResult& c = out[0];
  ASSERT_TRUE(c.ok) << c.error;
  ASSERT_EQ(c.attempts, 1u);
  const auto n = static_cast<double>(grid[0].accesses);
  EXPECT_EQ(c.result.accesses, grid[0].accesses / 2);
  EXPECT_EQ(c.accesses_replayed, grid[0].accesses);
  EXPECT_NEAR(c.accesses_per_sec * c.wall_seconds, n, 1e-6 * n);
}

// --- result sink: status fields ---------------------------------------------

TEST(ResultSink, JsonCarriesStatusAttemptsAndErrors) {
  const char* saved = std::getenv("HMM_RESULTS_DIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("HMM_RESULTS_DIR", "/tmp/hmm_sink_test", 1);

  ResultSink sink("sink_status_test");
  CellResult ok;
  ok.key = "good";
  ok.ok = true;
  ok.status = "ok";
  ok.attempts = 1;
  CellResult bad;
  bad.key = "bad";
  bad.ok = false;
  bad.status = "timeout";
  bad.attempts = 2;
  bad.error = "[timeout] budget spent";
  const std::string path = sink.write_json({ok, bad});
  ASSERT_FALSE(path.empty());

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"timeout\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"error\": \"[timeout] budget spent\""),
            std::string::npos);
  EXPECT_NE(json.find("\"retried\": 1"), std::string::npos);

  if (saved != nullptr)
    ::setenv("HMM_RESULTS_DIR", saved_value.c_str(), 1);
  else
    ::unsetenv("HMM_RESULTS_DIR");
}

// --- JSON writer ------------------------------------------------------------

TEST(JsonWriter, EmitsWellFormedNestedDocument) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.kv("name", "fig13");
  j.kv("cells", std::uint64_t{2});
  j.key("metrics").begin_object();
  j.kv("avg_latency", 123.25);
  j.kv("ok", true);
  j.end_object();
  j.key("tags").begin_array();
  j.value("a\"b");
  j.value(std::uint64_t{7});
  j.end_array();
  j.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"fig13\",\n"
            "  \"cells\": 2,\n"
            "  \"metrics\": {\n"
            "    \"avg_latency\": 123.25,\n"
            "    \"ok\": true\n"
            "  },\n"
            "  \"tags\": [\n"
            "    \"a\\\"b\",\n"
            "    7\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, EscapesControlCharacters) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_array();
  j.value("line\nbreak\ttab\x01");
  j.end_array();
  EXPECT_NE(os.str().find("line\\nbreak\\ttab\\u0001"), std::string::npos);
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream os;
  JsonWriter j(os);
  j.begin_object();
  j.key("empty_obj").begin_object().end_object();
  j.key("empty_arr").begin_array().end_array();
  j.end_object();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"empty_obj\": {},\n"
            "  \"empty_arr\": []\n"
            "}\n");
}

}  // namespace
}  // namespace hmm::runner
