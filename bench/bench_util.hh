// Shared harness pieces for the figure/table reproduction binaries.
//
// Every binary prints the paper's rows/series at a scaled-down trace
// length (the paper replays trillions of references; see DESIGN.md §4
// "Scaling note"). Knobs:
//   HMM_BENCH_SCALE   multiply every trace length (default 1.0; use 4-10
//                     for closer-to-steady-state numbers, 0.2 for smoke)
//   --jobs N / HMM_JOBS    sweep cells run at once (default: hardware
//                          concurrency); 1 = inline, the old serial loop;
//                          more = one fork()ed child per cell
//   --smoke / HMM_SMOKE    shrink the grid to one workload / one or two
//                          configs (the bench_smoke ctest path)
//   HMM_RESULTS_DIR        where sweep JSON artifacts land (default
//                          ./results; "" disables them)
//   --keep-going / HMM_KEEP_GOING   exit 0 even when sweep cells failed
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
//                          and exit (schemes-aware benches)
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

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
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

/// `--jobs N` / `--jobs=N` / `-j N` from argv, else HMM_JOBS, else 0
/// (which the runner resolves to hardware concurrency).
[[nodiscard]] inline unsigned jobs(int argc, char** argv) {
  constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--jobs=", 7) == 0)
      return numeric_flag("--jobs", a + 7, 1u, kMax);
    if ((std::strcmp(a, "--jobs") == 0 || std::strcmp(a, "-j") == 0) &&
        i + 1 < argc)
      return numeric_flag(a, argv[i + 1], 1u, kMax);
  }
  return numeric_env("HMM_JOBS", 0u, 1u, kMax);
}

/// `--smoke` / HMM_SMOKE=1: one tiny cell per axis so ctest can exercise
/// every converted bench in milliseconds.
[[nodiscard]] inline bool smoke(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  }
  if (const char* e = std::getenv("HMM_SMOKE"))
    return e[0] != '\0' && e[0] != '0';
  return false;
}

/// `--resume`: continue an interrupted sweep from its journal.
[[nodiscard]] inline bool resume_requested(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) return true;
  }
  return false;
}

/// Runner options for a bench binary: --jobs/HMM_JOBS, base seed 42 (the
/// historical bench seed), progress lines on stderr (stdout stays tables),
/// HMM_CELL_TIMEOUT, HMM_CKPT_INTERVAL, --resume, SIGINT/SIGTERM handling,
/// and the bench-keyed journal + checkpoint directory next to the JSON
/// artifact (HMM_RESULTS_DIR="" disables the durable files).
[[nodiscard]] inline runner::RunnerOptions runner_options(
    int argc, char** argv, const std::string& bench_id) {
  static runner::ConsoleProgress progress(std::cerr);
  constexpr double kMax = std::numeric_limits<double>::max();
  runner::RunnerOptions o;
  o.jobs = jobs(argc, argv);
  o.base_seed = 42;
  o.observer = &progress;
  o.cell_timeout_seconds =
      numeric_env("HMM_CELL_TIMEOUT", o.cell_timeout_seconds, 0.0, kMax);
  o.checkpoint_interval_seconds = numeric_env(
      "HMM_CKPT_INTERVAL", o.checkpoint_interval_seconds, 0.0, kMax);
  runner::install_interrupt_handlers();
  const std::string dir = runner::ResultSink::results_dir();
  if (!dir.empty()) {
    o.journal_path = dir + "/" + bench_id + ".journal";
    o.checkpoint_dir = dir + "/" + bench_id + ".ckpt";
  }
  o.resume = resume_requested(argc, argv);
  return o;
}

/// `--list-cells`: print the grid's deterministic "key seed" enumeration
/// (exactly the seeds the sweep will derive) and exit 0. Lets scripts
/// pre-compute a sweep's contents without running it.
inline void maybe_list_cells(const std::vector<runner::ExperimentSpec>& grid,
                             const runner::RunnerOptions& opts, int argc,
                             char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-cells") != 0) continue;
    for (const runner::ExperimentSpec& s : grid) {
      const std::uint64_t seed = runner::derive_seed(
          opts.base_seed, s.seed_key.empty() ? s.key : s.seed_key);
      std::cout << s.key << " " << seed << "\n";
    }
    std::exit(0);
  }
}

/// `--list-schemes`: print the scheme registry (the exact names the
/// bench's grid and --schemes accept), one per line, and exit 0.
inline void maybe_list_schemes(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-schemes") != 0) continue;
    for (const std::string& s : schemes::scheme_names())
      std::cout << s << "\n";
    std::exit(0);
  }
}

/// Announce where a sweep's JSON artifact landed (path is "" when the
/// sink is disabled or the write failed).
inline void report_artifact(const std::string& path) {
  if (!path.empty()) std::cerr << "[runner] wrote " << path << "\n";
}

/// Generic `--name VALUE` / `--name=VALUE` lookup.
[[nodiscard]] inline const char* option_value(int argc, char** argv,
                                              const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, name, len) != 0) continue;
    if (a[len] == '=') return a + len + 1;
    if (a[len] == '\0' && i + 1 < argc) return argv[i + 1];
  }
  return nullptr;
}

/// `--keep-going` / HMM_KEEP_GOING: report failed cells but exit 0.
[[nodiscard]] inline bool keep_going(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--keep-going") == 0) return true;
  }
  if (const char* e = std::getenv("HMM_KEEP_GOING"))
    return e[0] != '\0' && e[0] != '0';
  return false;
}

/// `--fault-rate R`: per-opportunity fault probability in [0, 1]
/// (default `fallback`).
[[nodiscard]] inline double fault_rate(int argc, char** argv,
                                       double fallback = 0.0) {
  if (const char* v = option_value(argc, argv, "--fault-rate"))
    return numeric_flag("--fault-rate", v, 0.0, 1.0);
  return fallback;
}

/// `--audit-interval N`: accesses between invariant audits.
[[nodiscard]] inline std::uint64_t audit_interval(int argc, char** argv,
                                                  std::uint64_t fallback) {
  if (const char* v = option_value(argc, argv, "--audit-interval"))
    return numeric_flag<std::uint64_t>(
        "--audit-interval", v, 0, std::numeric_limits<std::uint64_t>::max());
  return fallback;
}

/// `--fault-sites a,b,c`: subset of injection sites (names as printed by
/// fault::to_string). Unknown names abort with a usage message; no flag
/// returns `fallback`.
[[nodiscard]] inline std::vector<fault::FaultSite> fault_sites(
    int argc, char** argv, std::vector<fault::FaultSite> fallback) {
  const char* v = option_value(argc, argv, "--fault-sites");
  if (v == nullptr) return fallback;
  std::vector<fault::FaultSite> sites;
  std::string list(v);
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string name = list.substr(start, comma - start);
    if (!name.empty()) {
      fault::FaultSite s;
      if (!fault::site_from_name(name, s)) {
        std::cerr << "unknown fault site '" << name
                  << "' (see --help in README: chunk-drop, chunk-delay, "
                     "swap-abort, channel-stall, table-bit-flip, "
                     "hotness-corrupt, media-transient, media-stuck-at)\n";
        std::exit(2);
      }
      sites.push_back(s);
    }
    start = comma + 1;
  }
  return sites;
}

/// Standard sweep epilogue: reports every failed cell on stderr (the JSON
/// artifact already carries status/error per cell) and returns the bench's
/// exit code — non-zero when any cell failed, unless --keep-going.
[[nodiscard]] inline int finish(const std::vector<runner::CellResult>& cells,
                                int argc, char** argv) {
  std::uint64_t failed = 0;
  std::uint64_t interrupted = 0;
  for (const auto& c : cells) {
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
    std::cerr << "[runner] interrupted: " << interrupted << "/"
              << cells.size()
              << " cells unfinished — rerun with --resume to continue\n";
    return 130;  // the conventional 128 + SIGINT exit
  }
  if (failed == 0) return 0;
  std::cerr << "[runner] " << failed << "/" << cells.size()
            << " cells failed\n";
  return keep_going(argc, argv) ? 0 : 1;
}

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
