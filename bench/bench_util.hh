// Shared harness pieces for the figure/table reproduction binaries.
//
// Every binary prints the paper's rows/series at a scaled-down trace
// length (the paper replays trillions of references; see DESIGN.md §4
// "Scaling note"). The runner benches read their command line through
// bench::Sweep: a value flag takes `--flag V` or `--flag=V`, and any flag
// a bench does not know exits 2 naming it. Knobs:
//   HMM_BENCH_SCALE   multiply every trace length (default 1.0; use 4-10
//                     for closer-to-steady-state numbers, 0.2 for smoke)
//   --jobs N / -j N / HMM_JOBS   sweep cells run at once (default:
//                          hardware concurrency); 1 = inline, the old
//                          serial loop; more = one fork()ed child per cell
//   --smoke                shrink the grid to one workload / one or two
//                          configs (the bench_smoke ctest path)
//   HMM_RESULTS_DIR        where sweep JSON artifacts land (default
//                          ./results; "" disables them)
//   --keep-going           exit 0 even when sweep cells failed
//   --fault-rate R         per-opportunity fault probability in [0, 1]
//                          (resilience benches; 0 disables injection)
//   --fault-sites a,b      comma list of site names (default: every site
//                          the bench exercises)
//   --audit-interval N     invariant audit every N accesses (whole-state
//                          checks roll over 16 audits; full at the end)
//   HMM_CELL_TIMEOUT       per-cell wall-clock deadline in seconds
//                          (default 0 = none)
//   --list-cells           print the deterministic "key seed" enumeration
//                          of the sweep grid and exit
//   --list-schemes         print the scheme registry (one name per line)
//                          and exit
//   --resume               skip cells recorded in the sweep journal (after
//                          an interrupted/killed run); recorded metrics
//                          replay bit-identically. Without it a sweep
//                          starts fresh and drops the old journal.
//   HMM_CKPT_INTERVAL      seconds between mid-cell auto-checkpoints
//                          (default 30; 0 = checkpoint only on SIGINT/
//                          SIGTERM)
// A numeric flag or variable (HMM_BENCH_SCALE, HMM_JOBS, HMM_CELL_TIMEOUT,
// HMM_CKPT_INTERVAL) that does not parse whole, or lies out of range,
// exits 2 with a message naming it.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/params.hh"
#include "runner/progress.hh"
#include "schemes/registry.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/supervisor.hh"
#include "sim/memsim.hh"
#include "trace/workloads.hh"

namespace hmm::bench {

/// The value `text` of the numeric flag `flag`: all of it must parse as
/// a T in [lo, hi], or in (lo, hi] when `lo_open`. Anything else
/// (trailing characters, NaN, out of range) prints a message naming the
/// flag and exits 2. A floating `hi` at the type's maximum prints as inf.
template <class T>
[[nodiscard]] T numeric_flag(const char* flag, const char* text, T lo, T hi,
                             bool lo_open = false) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, v);
  if (ec == std::errc{} && stop == end && (lo_open ? v > lo : v >= lo) &&
      v <= hi)
    return v;
  std::cerr << flag << " takes a number in " << (lo_open ? "(" : "[") << lo;
  if (std::numeric_limits<T>::has_infinity &&
      hi == std::numeric_limits<T>::max())
    std::cerr << ", inf)";
  else
    std::cerr << ", " << hi << "]";
  std::cerr << ", not '" << text << "'\n";
  std::exit(2);
}

/// The numeric environment variable `name` by numeric_flag's rules, or
/// `fallback` when it is unset or empty.
template <class T>
[[nodiscard]] T numeric_env(const char* name, T fallback, T lo, T hi,
                            bool lo_open = false) {
  const char* e = std::getenv(name);
  if (e == nullptr || *e == '\0') return fallback;
  return numeric_flag(name, e, lo, hi, lo_open);
}

[[nodiscard]] inline double scale() {
  return numeric_env("HMM_BENCH_SCALE", 1.0, 0.0,
                     std::numeric_limits<double>::max(), /*lo_open=*/true);
}

[[nodiscard]] inline std::uint64_t scaled(std::uint64_t n) {
  return static_cast<std::uint64_t>(static_cast<double>(n) * scale());
}

/// One runner bench's command line, sweep and exit status. The
/// constructor parses argv once: the shared flags (--jobs N / -j N,
/// --smoke, --keep-going, --resume, --list-cells, --list-schemes) and the
/// bench's own value flags `own`. Any other argument exits 2 naming it;
/// --list-schemes prints the scheme registry and exits 0. `name` keys the
/// sweep journal, the checkpoint directory and the JSON artifact
/// `<HMM_RESULTS_DIR>/<name>.json`.
class Sweep {
 public:
  Sweep(int argc, char** argv, std::string name,
        std::vector<std::string> own = {})
      : name_(std::move(name)), sink_(name_) {
    bool list_schemes = false;
    const std::map<std::string_view, bool*> toggles = {
        {"--smoke", &smoke_},
        {"--keep-going", &keep_going_},
        {"--resume", &resume_},
        {"--list-cells", &list_cells_},
        {"--list-schemes", &list_schemes},
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (const auto t = toggles.find(arg); t != toggles.end()) {
        *t->second = true;
        continue;
      }
      const std::size_t eq =
          arg.rfind("--", 0) == 0 ? arg.find('=') : std::string::npos;
      const std::string flag = arg == "-j" ? "--jobs" : arg.substr(0, eq);
      if (flag != "--jobs" &&
          std::find(own.begin(), own.end(), flag) == own.end())
        refuse("unknown flag '" + arg + "'", own);
      if (eq == std::string::npos && i + 1 == argc)
        refuse(arg + " needs a value", own);
      values_.emplace(flag, eq == std::string::npos ? argv[++i]
                                                    : arg.substr(eq + 1));
    }
    if (list_schemes) {
      for (const std::string& s : schemes::scheme_names())
        std::cout << s << "\n";
      std::exit(0);
    }
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool smoke() const noexcept { return smoke_; }

  /// The Section IV workloads a grid sweeps: all six, or the first under
  /// --smoke.
  [[nodiscard]] std::vector<WorkloadInfo> workloads() const {
    std::vector<WorkloadInfo> w = section4_workloads();
    if (smoke_) w.resize(1);
    return w;
  }

  /// The number an own flag carries, by numeric_flag's rules, or
  /// `fallback` when the flag is absent.
  template <class T>
  [[nodiscard]] T number(const char* flag, T fallback, T lo, T hi) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback
                               : numeric_flag(flag, it->second.c_str(), lo, hi);
  }

  /// The comma list an own flag carries, empty items dropped, or nullopt
  /// when the flag is absent.
  [[nodiscard]] std::optional<std::vector<std::string>> list(
      const char* flag) const {
    const auto it = values_.find(flag);
    if (it == values_.end()) return std::nullopt;
    std::vector<std::string> items;
    std::istringstream in(it->second);
    for (std::string item; std::getline(in, item, ',');)
      if (!item.empty()) items.push_back(item);
    return items;
  }

  /// The artifact's params and derived per-cell metrics.
  [[nodiscard]] runner::ResultSink& sink() noexcept { return sink_; }

  /// Runs `grid` and returns its cells in grid order: --jobs/HMM_JOBS,
  /// progress lines on stderr (stdout stays tables), HMM_CELL_TIMEOUT,
  /// HMM_CKPT_INTERVAL, --resume, SIGINT/SIGTERM handling, and the journal
  /// and checkpoint directory next to the artifact (HMM_RESULTS_DIR=""
  /// disables them). --list-cells instead prints the grid's "key seed"
  /// lines, the seeds the sweep would derive, and exits 0.
  const std::vector<runner::CellResult>& run(
      const std::vector<runner::ExperimentSpec>& grid) {
    constexpr unsigned kMaxJobs = std::numeric_limits<unsigned>::max();
    constexpr double kMax = std::numeric_limits<double>::max();
    runner::RunnerOptions o;
    o.jobs = values_.count("--jobs") != 0
                 ? number("--jobs", 0u, 1u, kMaxJobs)
                 : numeric_env("HMM_JOBS", 0u, 1u, kMaxJobs);
    o.observer = &progress_;
    o.cell_timeout_seconds =
        numeric_env("HMM_CELL_TIMEOUT", o.cell_timeout_seconds, 0.0, kMax);
    o.checkpoint_interval_seconds = numeric_env(
        "HMM_CKPT_INTERVAL", o.checkpoint_interval_seconds, 0.0, kMax);
    if (list_cells_) {
      for (const runner::ExperimentSpec& s : grid) {
        const std::string& seed_key = s.seed_key.empty() ? s.key : s.seed_key;
        std::cout << s.key << " " << runner::derive_seed(o.base_seed, seed_key)
                  << "\n";
      }
      std::exit(0);
    }
    runner::install_interrupt_handlers();
    if (const std::string dir = runner::ResultSink::results_dir();
        !dir.empty()) {
      o.journal_path = dir + "/" + name_ + ".journal";
      o.checkpoint_dir = dir + "/" + name_ + ".ckpt";
    }
    o.resume = resume_;
    cells_ = runner::ExperimentRunner(o).run(grid);
    return cells_;
  }

  /// Writes the artifact and returns the exit status. A failed self-check
  /// (`broken` says what broke) exits 1. Otherwise every failed cell is
  /// reported on stderr (the artifact carries each cell's status and
  /// error), and the status is 130 when cells were interrupted, 1 when any
  /// failed unless --keep-going, else 0. `judged` keys a cell whose
  /// failure the self-check expects, so it is not counted again.
  [[nodiscard]] int finish(std::string_view broken = {},
                           std::string_view judged = {}) const {
    if (const std::string path = sink_.write_json(cells_); !path.empty())
      std::cerr << "[runner] wrote " << path << "\n";
    if (!broken.empty()) {
      std::cerr << "[" << name_ << "] self-check failed: " << broken << "\n";
      return 1;
    }
    std::uint64_t counted = 0;
    std::uint64_t failed = 0;
    std::uint64_t interrupted = 0;
    for (const runner::CellResult& c : cells_) {
      if (c.key == judged) continue;
      ++counted;
      if (c.ok) continue;
      if (c.status == "interrupted") {
        ++interrupted;
        continue;
      }
      ++failed;
      std::cerr << "[runner] FAILED " << c.key << " (" << c.status
                << "): " << c.error << "\n";
    }
    if (interrupted > 0) {
      std::cerr << "[runner] interrupted: " << interrupted << "/" << counted
                << " cells unfinished — rerun with --resume to continue\n";
      return 130;  // the conventional 128 + SIGINT exit
    }
    if (failed == 0) return 0;
    std::cerr << "[runner] " << failed << "/" << counted << " cells failed\n";
    return keep_going_ ? 0 : 1;
  }

 private:
  [[noreturn]] void refuse(const std::string& what,
                           const std::vector<std::string>& own) const {
    std::cerr << name_ << ": " << what << " (flags: --jobs N, -j N, --smoke, "
              << "--keep-going, --resume, --list-cells, --list-schemes";
    for (const std::string& f : own) std::cerr << ", " << f << " V";
    std::cerr << ")\n";
    std::exit(2);
  }

  std::string name_;
  runner::ResultSink sink_;
  runner::ConsoleProgress progress_{std::cerr};
  std::map<std::string, std::string, std::less<>> values_;
  bool smoke_ = false;
  bool keep_going_ = false;
  bool resume_ = false;
  bool list_cells_ = false;
  std::vector<runner::CellResult> cells_;
};

/// Section IV geometry with the given macro-page size and on-package size.
[[nodiscard]] inline Geometry sec4_geometry(
    std::uint64_t page_bytes,
    std::uint64_t on_package = params::kSec4OnPackageCapacity) {
  Geometry g;
  g.total_bytes = params::kTotalMemory;
  g.on_package_bytes = on_package;
  g.page_bytes = page_bytes;
  g.sub_block_bytes = std::min<std::uint64_t>(params::kSubBlockSize,
                                              page_bytes);
  return g;
}

/// Convenience: a migration config for the Section IV studies.
[[nodiscard]] inline MemSimConfig migration_config(
    std::uint64_t page_bytes, MigrationDesign design, std::uint64_t interval,
    std::uint64_t on_package = params::kSec4OnPackageCapacity) {
  MemSimConfig cfg;
  cfg.controller.geom = sec4_geometry(page_bytes, on_package);
  cfg.scheme = to_string(design);
  cfg.controller.swap_interval = interval;
  cfg.controller.migration_enabled = true;
  return cfg;
}

/// Static mapping (no migration) on the same geometry.
[[nodiscard]] inline MemSimConfig static_config(
    std::uint64_t page_bytes,
    std::uint64_t on_package = params::kSec4OnPackageCapacity) {
  MemSimConfig cfg;
  cfg.controller.geom = sec4_geometry(page_bytes, on_package);
  cfg.controller.migration_enabled = false;
  return cfg;
}

/// The Section IV workload called `name`.
[[nodiscard]] inline const WorkloadInfo& section4_workload(
    std::string_view name) {
  const std::vector<WorkloadInfo>& all = section4_workloads();
  const auto it =
      std::find_if(all.begin(), all.end(),
                   [&](const WorkloadInfo& w) { return w.name == name; });
  HMM_CHECK(it != all.end(), "no Section IV workload " + std::string(name));
  return *it;
}

/// Build one sweep cell. `key` must be unique within the grid; `seed_key`
/// groups cells that must replay the same reference stream (all cells of
/// one workload within a figure, so with/without-migration comparisons
/// stay paired, as they were when every serial run used one fixed seed).
[[nodiscard]] inline runner::ExperimentSpec cell(
    std::string key, std::string seed_key, const WorkloadInfo& w,
    const MemSimConfig& cfg, std::uint64_t n, double warmup_fraction = 0.5) {
  runner::ExperimentSpec s;
  s.key = std::move(key);
  s.seed_key = std::move(seed_key);
  s.workload = w;
  s.config = cfg;
  s.accesses = n;
  s.warmup_fraction = warmup_fraction;
  return s;
}

}  // namespace hmm::bench
