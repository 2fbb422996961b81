// Table IV: effectiveness of memory-controller-based data migration in
// reducing average memory access latency, plus the Table III parameter
// summary. For each workload we report the no-migration latency, the best
// migrated latency over a granularity sweep, and
//   eta = (Lat_nomig - Lat_mig) / (Lat_nomig - DRAM core latency),
// where the DRAM core latency is the measured unloaded on-package access
// time (the paper's per-workload "DRAM core latency" row).
//
// Paper reference row (Table IV):
//   FT 69.1% | MG 84.3% | pgbench 92.2% | indexer 86.1% | SPECjbb 72.2%
//   | SPEC2006 99.1%  -> average 83%.
//
// The workload x granularity grid runs as one parallel sweep (--jobs N).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"

using namespace hmm;

int main(int argc, char** argv) {
  bench::Sweep sweep(argc, argv, "table4_effectiveness");
  const std::uint64_t n = bench::scaled(1'500'000);
  // Best-configuration sweep: live migration across granularities at the
  // most aggressive swap interval (the paper's Fig 12 minimum per curve).
  std::vector<std::uint64_t> pages = {4 * KiB,   16 * KiB, 64 * KiB,
                                      256 * KiB, 1 * MiB,  4 * MiB};
  const std::uint64_t interval = 1000;
  if (sweep.smoke()) pages = {256 * KiB};
  const std::vector<WorkloadInfo> workloads = sweep.workloads();

  std::printf("Table III parameters: total 4GB, on-package 512MB, macro "
              "pages 4KB-4MB, sub-block 4KB, FR-FCFS, open page\n");
  std::printf("Trace length per configuration: %llu accesses "
              "(HMM_BENCH_SCALE=%g)\n\n",
              static_cast<unsigned long long>(n), bench::scale());

  // Grid: per workload, the no-migration reference, the unloaded
  // all-on-package reference (core latency), then the granularity sweep.
  std::vector<runner::ExperimentSpec> grid;
  for (const WorkloadInfo& w : workloads) {
    const std::string wk = "table4/" + w.name;
    grid.push_back(bench::cell(wk + "/static", wk, w,
                               bench::static_config(4 * MiB), n));
    MemSimConfig ideal = bench::static_config(4 * MiB);
    ideal.force = MemSimConfig::Force::AllOnPackage;
    grid.push_back(bench::cell(wk + "/all-on", wk, w, ideal, n / 2));
    for (const std::uint64_t page : pages) {
      grid.push_back(bench::cell(
          wk + "/" + format_size(page), wk, w,
          bench::migration_config(page, MigrationDesign::LiveMigration,
                                  interval),
          n));
    }
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  runner::ResultSink& sink = sweep.sink();
  sink.set_param("interval", interval);
  sink.set_param("accesses", n);

  TextTable t({"Workload", "Core lat", "Lat w/o migration",
               "Best lat w/ migration", "Best page", "Effectiveness"});
  double eta_sum = 0;
  int eta_count = 0;
  std::size_t i = 0;
  for (const WorkloadInfo& w : workloads) {
    const runner::CellResult& nomig = cells[i++];
    const runner::CellResult& allon = cells[i++];
    const double core_latency =
        allon.result.avg_latency - allon.result.on_queue_delay;

    double best = 1e300;
    std::uint64_t best_page = 0;
    for (const std::uint64_t page : pages) {
      const runner::CellResult& c = cells[i++];
      if (c.ok && c.result.avg_latency < best) {
        best = c.result.avg_latency;
        best_page = page;
      }
    }

    if (!nomig.ok || !allon.ok || best_page == 0) {
      // A failed reference (or a fully failed sweep) leaves no comparison
      // to make; the JSON artifact carries the per-cell errors.
      t.add_row({w.name, allon.ok ? TextTable::num(core_latency) : "FAILED",
                 nomig.ok ? TextTable::num(nomig.result.avg_latency)
                          : "FAILED",
                 best_page != 0 ? TextTable::num(best) : "FAILED",
                 best_page != 0 ? format_size(best_page) : "-", "-"});
      continue;
    }

    const double denom = nomig.result.avg_latency - core_latency;
    const double eta =
        denom > 0 ? (nomig.result.avg_latency - best) / denom : 0.0;
    eta_sum += eta;
    ++eta_count;
    sink.add_derived("table4/" + w.name + "/" + format_size(best_page),
                     "effectiveness", eta);
    sink.add_derived(allon.key, "core_latency", core_latency);
    t.add_row({w.name, TextTable::num(core_latency),
               TextTable::num(nomig.result.avg_latency), TextTable::num(best),
               format_size(best_page), TextTable::pct(eta)});
  }

  t.add_row({"average", "", "", "", "",
             eta_count > 0 ? TextTable::pct(eta_sum / eta_count) : "-"});
  t.print(std::cout);
  std::printf("\npaper: FT 69.1%% MG 84.3%% pgbench 92.2%% indexer 86.1%% "
              "SPECjbb 72.2%% SPEC2006 99.1%% (avg 83%%)\n");
  return sweep.finish();
}
