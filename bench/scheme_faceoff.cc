// Scheme face-off: the full zoo (N, N-1, Live, nomad, Alloy, flat-HMA,
// MemCache) head-to-head on the fig11-style workloads, one grid, one
// artifact.
//
// Every scheme replays the identical reference stream per workload (shared
// seed key), so the table is a controlled comparison: the paper's swap
// choreographies against the die-stacked-DRAM alternatives they compete
// with. The JSON artifact (BENCH_scheme_faceoff.json) carries per-scheme
// latency, on-package share, migration/fill traffic, and an IPC proxy
// (accesses per simulated cycle) — the perf trajectory later PRs diff
// against.
//
// Extra knobs on top of the shared bench flags:
//   --schemes a,b,c      subset of registry names (default: the whole
//                        registry); an unknown name exits 2 with the
//                        registry's structured error message
//   --cache-fraction F   MemCache partition knob (default 0.5)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "schemes/registry.hh"

using namespace hmm;

int main(int argc, char** argv) {
  bench::Sweep sweep(argc, argv, "BENCH_scheme_faceoff",
                     {"--schemes", "--cache-fraction"});
  const std::vector<std::string> names =
      sweep.list("--schemes").value_or(schemes::scheme_names());
  try {
    for (const std::string& s : names) schemes::validate_scheme_name(s);
  } catch (const fault::SimError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double cf = sweep.number("--cache-fraction", 0.5, 0.0, 1.0);

  const std::uint64_t n = bench::scaled(240'000);
  const std::uint64_t page = 4 * MiB;
  const std::uint64_t interval = 10'000;
  const std::vector<WorkloadInfo> workloads = sweep.workloads();

  std::printf("Scheme face-off: %zu schemes x %zu workloads "
              "(%llu accesses/cell, %s pages, interval %llu)\n\n",
              names.size(), workloads.size(),
              static_cast<unsigned long long>(n), format_size(page).c_str(),
              static_cast<unsigned long long>(interval));

  std::vector<runner::ExperimentSpec> grid;
  for (const WorkloadInfo& w : workloads) {
    const std::string wk = "faceoff/" + w.name;
    for (const std::string& s : names) {
      // One config shape for everyone: the name picks the swap design,
      // flat-HMA profiles for one swap_interval epoch, the cache schemes
      // use geometry + the knob.
      MemSimConfig cfg;
      cfg.controller.geom = bench::sec4_geometry(page);
      cfg.controller.swap_interval = interval;
      cfg.controller.migration_enabled = true;
      cfg.scheme = s;
      cfg.cache_fraction = cf;
      grid.push_back(bench::cell(wk + "/" + s, wk, w, cfg, n));
    }
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  runner::ResultSink& sink = sweep.sink();
  sink.set_param("accesses", n);
  sink.set_param("page_bytes", page);
  sink.set_param("interval", interval);
  sink.set_param("cache_fraction", std::to_string(cf));

  std::size_t i = 0;
  for (const WorkloadInfo& w : workloads) {
    std::printf("== %s\n", w.name.c_str());
    TextTable t({"scheme", "avg_lat", "p99", "on_frac", "swaps",
                 "migrated", "ipc_proxy"});
    for (const std::string& s : names) {
      const runner::CellResult& c = cells[i++];
      if (!c.ok) {
        t.add_row({s, "FAILED", "-", "-", "-", "-", "-"});
        continue;
      }
      const RunResult& r = c.result;
      // IPC proxy: retired references per simulated cycle — higher is
      // better, comparable across schemes because the streams are paired.
      const double ipc =
          r.end_time == 0 ? 0.0
                          : static_cast<double>(r.accesses) /
                                static_cast<double>(r.end_time);
      sink.add_derived(c.key, "ipc_proxy", ipc);
      char ipc_buf[32];
      std::snprintf(ipc_buf, sizeof ipc_buf, "%.4f", ipc);
      t.add_row({s, TextTable::num(r.avg_latency),
                 TextTable::num(r.p99_latency),
                 TextTable::num(r.on_package_fraction),
                 std::to_string(r.swaps), format_size(r.migrated_bytes),
                 ipc_buf});
    }
    t.print(std::cout);
    std::printf("\n");
  }
  return sweep.finish();
}
