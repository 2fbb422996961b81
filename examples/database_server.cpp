// Example: capacity planning for a transaction-processing server.
//
// A database operator wants to know how much on-package DRAM the paper's
// heterogeneous memory needs before a TPC-B-style workload stops feeling
// the off-package DIMMs. This sweeps the on-package capacity (Fig 15
// style) and macro-page granularity for the pgbench model and prints the
// resulting average memory latency, on-package hit share, and power.
//
//   ./build/examples/database_server [accesses]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/table.hh"
#include "sim/memsim.hh"
#include "sim/replay.hh"
#include "trace/workloads.hh"

using namespace hmm;

namespace {

RunResult run_config(std::uint64_t on_cap, std::uint64_t page,
                     std::uint64_t accesses) {
  MemSimConfig cfg;
  cfg.controller.geom =
      Geometry{4 * GiB, on_cap, page, std::min<std::uint64_t>(4 * KiB, page)};
  cfg.scheme = "Live";
  cfg.controller.swap_interval = 1'000;

  MemSim sim(cfg);
  auto w = make_pgbench(7);
  // Half the accesses warm placement up, the other half are measured.
  const std::uint64_t half = accesses / 2;
  replay(sim, *w, half, 2 * half);
  return sim.result();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400'000;

  std::printf("database server capacity planning — pgbench model, "
              "%llu accesses per configuration\n\n",
              static_cast<unsigned long long>(n));

  TextTable t({"On-package", "Page", "Avg latency", "On-pkg share",
               "Swaps", "Power vs off-only"});
  for (const std::uint64_t cap : {128 * MiB, 256 * MiB, 512 * MiB}) {
    for (const std::uint64_t page : {16 * KiB, 256 * KiB, 4 * MiB}) {
      const RunResult r = run_config(cap, page, n);
      t.add_row({format_size(cap), format_size(page),
                 TextTable::num(r.avg_latency) + " cyc",
                 TextTable::pct(r.on_package_fraction),
                 std::to_string(r.swaps),
                 TextTable::num(r.normalized_power(), 2) + "x"});
    }
  }
  t.print(std::cout);
  std::printf("\nreading: latency falls as capacity grows; finer pages "
              "track the hot set\nmore precisely but pay more table/OS "
              "overhead (Fig 10's trade-off).\n");
  return 0;
}
