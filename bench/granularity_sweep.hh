// Shared driver for Figs 12/13/14: live migration, average memory latency
// across macro-page granularities at a fixed swap interval. The whole
// workload x granularity grid runs as one parallel sweep (--jobs N).
#pragma once

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"

namespace hmm::bench {

inline int run_granularity_sweep(int argc, char** argv, std::uint64_t interval,
                                 const char* figure_name,
                                 const char* bench_id) {
  Sweep sweep(argc, argv, bench_id);
  const std::uint64_t n = scaled(400'000);
  std::vector<std::uint64_t> pages = {4 * KiB,   16 * KiB, 64 * KiB,
                                      256 * KiB, 1 * MiB,  4 * MiB};
  if (sweep.smoke()) pages = {64 * KiB};
  const std::vector<WorkloadInfo> workloads = sweep.workloads();

  std::printf("%s: avg memory latency, live migration, swap interval = "
              "%llu accesses (%llu accesses/cfg)\n\n",
              figure_name, static_cast<unsigned long long>(interval),
              static_cast<unsigned long long>(n));

  // Grid: per workload, one cell per granularity plus the no-migration
  // reference; all cells of a workload share its reference stream.
  std::vector<runner::ExperimentSpec> grid;
  for (const WorkloadInfo& w : workloads) {
    const std::string wk = sweep.name() + "/" + w.name;
    for (const std::uint64_t page : pages) {
      grid.push_back(cell(
          wk + "/" + format_size(page), wk, w,
          migration_config(page, MigrationDesign::LiveMigration, interval),
          n));
    }
    grid.push_back(cell(wk + "/static", wk, w, static_config(4 * MiB), n / 2));
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  std::vector<std::string> header{"Workload"};
  for (const std::uint64_t page : pages) header.push_back(format_size(page));
  header.push_back("w/o migration");
  TextTable t(std::move(header));
  std::size_t i = 0;
  for (const WorkloadInfo& w : workloads) {
    std::vector<std::string> row{w.name};
    for (std::size_t p = 0; p < pages.size() + 1; ++p) {
      const runner::CellResult& c = cells[i++];
      row.push_back(c.ok ? TextTable::num(c.result.avg_latency)
                         : "FAILED");
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  sweep.sink().set_param("interval", interval);
  sweep.sink().set_param("accesses", n);
  sweep.sink().set_param("design", "LiveMigration");
  return sweep.finish();
}

}  // namespace hmm::bench
