// Example: an HPC user's view — does migration help a multigrid solver?
//
// MG-like codes have nested working sets (each coarser grid level is 8x
// smaller but visited every V-cycle). This example compares the three
// migration designs (N / N-1 / Live) on the MG model at a fixed
// granularity, showing why overlapping the copy with execution matters
// (Section IV-A), and prints the per-design migration statistics.
//
//   ./build/examples/hpc_stencil [accesses]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "schemes/swap_scheme.hh"
#include "sim/memsim.hh"
#include "trace/workloads.hh"

using namespace hmm;

namespace {

struct Row {
  RunResult result;
  MigrationEngine::Stats engine;
};

Row run_design(MigrationDesign d, std::uint64_t accesses) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 1 * MiB, 4 * KiB};
  cfg.scheme = to_string(d);
  cfg.controller.swap_interval = 1'000;

  MemSim sim(cfg);
  auto w = make_mg(3);
  // Deliberately measured from a cold start: the design differences (halt
  // vs overlap vs live forwarding) appear while migration is in full
  // swing, which is exactly the regime Fig 11 compares.
  sim.run(*w, accesses);
  sim.finish();
  const auto& swap = dynamic_cast<const schemes::SwapScheme&>(sim.scheme());
  return Row{sim.result(), swap.engine().stats()};
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400'000;

  std::printf("multigrid solver on heterogeneous memory — MG model, 1MB "
              "macro pages, %llu accesses per design\n\n",
              static_cast<unsigned long long>(n));

  TextTable t({"Design", "Avg latency", "On-pkg share", "Swaps",
               "MB migrated", "Engine busy (Mcyc)"});
  for (const MigrationDesign d :
       {MigrationDesign::N, MigrationDesign::NMinus1,
        MigrationDesign::LiveMigration}) {
    const Row r = run_design(d, n);
    t.add_row({to_string(d), TextTable::num(r.result.avg_latency) + " cyc",
               TextTable::pct(r.result.on_package_fraction),
               std::to_string(r.engine.swaps_completed),
               TextTable::num(static_cast<double>(r.engine.bytes_copied) /
                              (1024.0 * 1024.0)),
               TextTable::num(static_cast<double>(r.engine.busy_cycles) /
                              1e6)});
  }
  t.print(std::cout);
  std::printf("\nreading: the basic N design halts execution for every "
              "swap; N-1 hides the\ncopy behind the P-bit choreography; "
              "Live migration additionally serves the\nhot page from the "
              "partially filled slot (F bit + sub-block bitmap).\n");
  return 0;
}
