// Quickstart: build a heterogeneous main memory (512MB on-package of a 4GB
// space), replay a skewed synthetic workload, and compare no-migration
// static mapping against live migration.
//
//   ./build/examples/quickstart [accesses]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/memsim.hh"
#include "sim/replay.hh"
#include "trace/workloads.hh"

using namespace hmm;

namespace {

RunResult run_once(bool migration, MigrationDesign design,
                   std::uint64_t accesses) {
  MemSimConfig cfg;
  cfg.controller.geom = Geometry{4 * GiB, 512 * MiB, 64 * KiB, 4 * KiB};
  cfg.controller.migration_enabled = migration;
  cfg.scheme = to_string(design);
  cfg.controller.swap_interval = 1'000;

  MemSim sim(cfg);
  auto workload = make_pgbench(/*seed=*/42);
  // Fast-forward placement to steady state over the first half, then
  // measure the second with real migration dynamics (see EXPERIMENTS.md,
  // "warm-up methodology").
  const std::uint64_t half = accesses / 2;
  replay(sim, *workload, half, 2 * half);
  return sim.result();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                   : 600'000;

  std::printf("heterogeneous main memory quickstart — pgbench model, %llu "
              "accesses\n\n",
              static_cast<unsigned long long>(n));

  const RunResult base =
      run_once(false, MigrationDesign::LiveMigration, n);
  const RunResult live = run_once(true, MigrationDesign::LiveMigration, n);

  std::printf("static mapping (no migration):\n");
  std::printf("  avg latency        %.1f cycles (on %.1f / off %.1f, "
              "qd on %.1f / off %.1f)\n",
              base.avg_latency, base.avg_on_latency, base.avg_off_latency,
              base.on_queue_delay, base.off_queue_delay);
  std::printf("  on-package share   %.1f%%\n",
              base.on_package_fraction * 100.0);
  std::printf("\nlive migration (1MB macro pages, 10K-access epochs):\n");
  std::printf("  avg latency        %.1f cycles (on %.1f / off %.1f, "
              "qd on %.1f / off %.1f)\n",
              live.avg_latency, live.avg_on_latency, live.avg_off_latency,
              live.on_queue_delay, live.off_queue_delay);
  std::printf("  on-package share   %.1f%%\n",
              live.on_package_fraction * 100.0);
  std::printf("  swaps completed    %llu\n",
              static_cast<unsigned long long>(live.swaps));
  std::printf("  bytes migrated     %.1f MB\n",
              static_cast<double>(live.migrated_bytes) / (1024.0 * 1024.0));
  std::printf("  normalized power   %.2fx of off-package-only\n",
              live.normalized_power());
  std::printf("\neffectiveness eta  %.1f%%  (paper reports 83%% on average)\n",
              RunResult::effectiveness(base.avg_latency, live.avg_latency) *
                  100.0);
  return 0;
}
