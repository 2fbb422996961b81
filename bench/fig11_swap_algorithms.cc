// Fig 11 (a)-(c): average memory access latency of N / N-1 / Live
// migration across macro-page sizes (4KB..4MB) and swap intervals
// (1K / 10K / 100K accesses), with the paper's three guide lines per
// workload: all-off-package, all-on-package, and static (no migration).
//
// Paper shape to reproduce: at coarse granularity (4MB), N is impractical
// at high swap frequency (blocking swaps dominate); N-1 overlaps the copy
// with execution; Live shaves a further few percent; at fine granularity
// (4KB) the three converge.
//
// The full workload x interval x page x design grid (plus guides) runs as
// one parallel sweep; pass --jobs N to run N cells at once.
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"

using namespace hmm;

int main(int argc, char** argv) {
  bench::Sweep sweep(argc, argv, "fig11_swap_algorithms");
  const std::uint64_t n = bench::scaled(240'000);
  std::vector<std::uint64_t> pages = {4 * KiB,   16 * KiB, 64 * KiB,
                                      256 * KiB, 1 * MiB,  4 * MiB};
  std::vector<std::uint64_t> intervals = {1'000, 10'000, 100'000};
  const std::vector<MigrationDesign> designs = {
      MigrationDesign::N, MigrationDesign::NMinus1,
      MigrationDesign::LiveMigration};
  if (sweep.smoke()) {
    pages = {256 * KiB};
    intervals = {10'000};
  }
  const std::vector<WorkloadInfo> workloads = sweep.workloads();

  std::printf("Fig 11: avg memory latency, designs x granularity x swap "
              "interval (%llu accesses/cfg)\n\n",
              static_cast<unsigned long long>(n));

  // Grid: per workload, the three guide cells then the full matrix; every
  // cell of a workload shares its reference stream.
  std::vector<runner::ExperimentSpec> grid;
  for (const WorkloadInfo& w : workloads) {
    const std::string wk = "fig11/" + w.name;
    MemSimConfig off_cfg = bench::static_config(4 * MiB);
    off_cfg.force = MemSimConfig::Force::AllOffPackage;
    grid.push_back(bench::cell(wk + "/all-off", wk, w, off_cfg, n / 2));
    MemSimConfig on_cfg = bench::static_config(4 * MiB);
    on_cfg.force = MemSimConfig::Force::AllOnPackage;
    grid.push_back(bench::cell(wk + "/all-on", wk, w, on_cfg, n / 2));
    grid.push_back(
        bench::cell(wk + "/static", wk, w, bench::static_config(4 * MiB),
                    n / 2));
    for (const std::uint64_t interval : intervals) {
      for (const std::uint64_t page : pages) {
        for (const MigrationDesign d : designs) {
          grid.push_back(bench::cell(
              wk + "/i" + std::to_string(interval) + "/" + format_size(page) +
                  "/" + to_string(d),
              wk, w, bench::migration_config(page, d, interval), n));
        }
      }
    }
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  auto latency = [](const runner::CellResult& c) {
    return c.ok ? TextTable::num(c.result.avg_latency) : std::string("FAILED");
  };

  // Guide lines keep the historical %.1f rendering on success so existing
  // output stays bit-identical; a failed guide cell prints FAILED.
  auto guide = [](const runner::CellResult& c) {
    if (!c.ok) return std::string("FAILED");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", c.result.avg_latency);
    return std::string(buf);
  };

  std::size_t i = 0;
  for (const WorkloadInfo& w : workloads) {
    const runner::CellResult& all_off = cells[i++];
    const runner::CellResult& all_on = cells[i++];
    const runner::CellResult& nomig = cells[i++];
    std::printf("== %s  (all-off %s | all-on %s | w/o migration %s)\n",
                w.name.c_str(), guide(all_off).c_str(), guide(all_on).c_str(),
                guide(nomig).c_str());

    for (const std::uint64_t interval : intervals) {
      TextTable t({"page", "N", "N-1", "Live"});
      for (const std::uint64_t page : pages) {
        std::vector<std::string> row{format_size(page)};
        for (std::size_t d = 0; d < designs.size(); ++d) {
          row.push_back(latency(cells[i++]));
        }
        t.add_row(std::move(row));
      }
      std::printf("-- swap interval = %llu accesses\n",
                  static_cast<unsigned long long>(interval));
      t.print(std::cout);
    }
    std::printf("\n");
  }

  sweep.sink().set_param("accesses", n);
  return sweep.finish();
}
