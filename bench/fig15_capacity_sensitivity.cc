// Fig 15: sensitivity to on-package capacity (128MB / 256MB / 512MB):
// DRAM core latency, average latency with migration, and without.
//
// Paper shape: latency rises as the on-package region shrinks, but stays
// well below the no-migration latency even at 128MB. The workload x
// capacity grid runs as one parallel sweep (--jobs N).
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"

using namespace hmm;

int main(int argc, char** argv) {
  bench::Sweep sweep(argc, argv, "fig15_capacity_sensitivity");
  const std::uint64_t n = bench::scaled(400'000);
  std::vector<std::uint64_t> capacities = {128 * MiB, 256 * MiB, 512 * MiB};
  const std::uint64_t page = 256 * KiB;
  const std::uint64_t interval = 1'000;
  if (sweep.smoke()) capacities = {256 * MiB};
  const std::vector<WorkloadInfo> workloads = sweep.workloads();

  std::printf("Fig 15: latency vs on-package capacity (live migration, "
              "%s pages, %llu-access epochs, %llu accesses/cfg)\n\n",
              format_size(page).c_str(),
              static_cast<unsigned long long>(interval),
              static_cast<unsigned long long>(n));

  // Grid: per (workload, capacity): ideal all-on-package (for the core
  // latency), with migration, and without.
  std::vector<runner::ExperimentSpec> grid;
  for (const WorkloadInfo& w : workloads) {
    const std::string wk = "fig15/" + w.name;
    for (const std::uint64_t cap : capacities) {
      const std::string ck = wk + "/" + format_size(cap);
      MemSimConfig ideal = bench::static_config(page, cap);
      ideal.force = MemSimConfig::Force::AllOnPackage;
      grid.push_back(bench::cell(ck + "/all-on", wk, w, ideal, n / 2));
      grid.push_back(bench::cell(
          ck + "/migration", wk, w,
          bench::migration_config(page, MigrationDesign::LiveMigration,
                                  interval, cap),
          n));
      grid.push_back(
          bench::cell(ck + "/static", wk, w, bench::static_config(page, cap),
                      n / 2));
    }
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  runner::ResultSink& sink = sweep.sink();
  sink.set_param("page", format_size(page));
  sink.set_param("interval", interval);
  sink.set_param("accesses", n);

  TextTable t({"Workload", "Capacity", "Core lat", "w/ migration",
               "w/o migration"});
  std::size_t i = 0;
  for (const WorkloadInfo& w : workloads) {
    for (const std::uint64_t cap : capacities) {
      const runner::CellResult& allon = cells[i++];
      const runner::CellResult& mig = cells[i++];
      const runner::CellResult& nomig = cells[i++];
      const double core =
          allon.result.avg_latency - allon.result.on_queue_delay;
      if (allon.ok) sink.add_derived(allon.key, "core_latency", core);
      auto lat = [](const runner::CellResult& c, double v) {
        return c.ok ? TextTable::num(v) : std::string("FAILED");
      };
      t.add_row({w.name, format_size(cap), lat(allon, core),
                 lat(mig, mig.result.avg_latency),
                 lat(nomig, nomig.result.avg_latency)});
    }
  }
  t.print(std::cout);
  return sweep.finish();
}
