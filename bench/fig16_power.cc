// Fig 16: total memory power of the hybrid on-/off-package system with
// dynamic migration, normalized to an off-package-DRAM-only system, for
// migration granularities 4KB / 16KB / 64KB and swap intervals 1K / 10K /
// 100K accesses.
//
// Paper shape: power overhead grows with migration frequency and page
// size (crossing-package copy traffic); the minimum observed overhead is
// about 2x, at 4KB granularity with infrequent swaps. The 6x3x3 grid runs
// as one parallel sweep (--jobs N).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"

using namespace hmm;

int main(int argc, char** argv) {
  bench::Sweep sweep(argc, argv, "fig16_power");
  const std::uint64_t n = bench::scaled(300'000);
  std::vector<std::uint64_t> pages = {4 * KiB, 16 * KiB, 64 * KiB};
  std::vector<std::uint64_t> intervals = {1'000, 10'000, 100'000};
  if (sweep.smoke()) {
    pages = {16 * KiB};
    intervals = {10'000};
  }
  const std::vector<WorkloadInfo> workloads = sweep.workloads();

  std::printf("Fig 16: memory power normalized to off-package-only "
              "(%llu accesses/cfg)\n",
              static_cast<unsigned long long>(n));
  std::printf("energy: %.2gpJ/bit core, %.3gpJ/bit on-package link, "
              "%.2gpJ/bit off-package link\n\n",
              params::kDramCorePjPerBit, params::kOnPackageLinkPjPerBit,
              params::kOffPackageLinkPjPerBit);

  // Power must include the warm-up migration traffic proportionally, so
  // every cell skips the warm-up and measures real migration dynamics
  // from its first access.
  std::vector<runner::ExperimentSpec> grid;
  for (const WorkloadInfo& w : workloads) {
    const std::string wk = "fig16/" + w.name;
    for (const std::uint64_t page : pages) {
      for (const std::uint64_t interval : intervals) {
        grid.push_back(bench::cell(
            wk + "/" + format_size(page) + "/i" + std::to_string(interval),
            wk, w,
            bench::migration_config(page, MigrationDesign::LiveMigration,
                                    interval),
            n, /*warmup_fraction=*/0.0));
      }
    }
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  TextTable t({"Workload", "Size", "1K", "10K", "100K"});
  double min_ratio = 1e300;
  std::size_t i = 0;
  for (const WorkloadInfo& w : workloads) {
    for (const std::uint64_t page : pages) {
      std::vector<std::string> row{w.name, format_size(page)};
      for (std::size_t k = 0; k < intervals.size(); ++k) {
        const runner::CellResult& c = cells[i++];
        if (!c.ok) {
          row.push_back("FAILED");
          continue;
        }
        const double ratio = c.result.normalized_power();
        min_ratio = std::min(min_ratio, ratio);
        row.push_back(TextTable::num(ratio, 2) + "x");
      }
      t.add_row(std::move(row));
    }
  }
  t.print(std::cout);
  std::printf("\nminimum observed overhead: %.2fx (paper: ~2x)\n", min_ratio);

  sweep.sink().set_param("accesses", n);
  sweep.sink().set_param("design", "LiveMigration");
  return sweep.finish();
}
