// Fault resilience: the paper's "execution never halts" claim under
// adversity, measured — across the whole scheme registry. Sweeps fault
// rate x scheme {N, N-1, Live, nomad, Alloy, flat-HMA, MemCache} with
// the deterministic fault injector armed at the migration copy path
// (chunk drop / chunk re-stream / channel stall / mid-flight swap abort
// / hotness corruption) and the periodic invariant audit on.
//
// What the table shows:
//  * N-1, Live, and nomad complete at every rate — recovering (retries,
//    aborted swaps/transactions rolled back to a valid state) or
//    entering degraded mode (table frozen, traffic still served) — with
//    zero audit failures; nomad's recovery is the transactional abort
//    (DESIGN.md §10), so its aborts column counts rolled-back txns;
//  * the cache/static schemes (Alloy, flat-HMA, MemCache) have no
//    migration copy path to corrupt, so only channel stalls touch them —
//    they anchor the "no scheme ever wedges" claim at the boring end;
//  * the basic N design has no recovery choreography: once its retry
//    budget exhausts, the watchdog reports a structured SimError
//    (status "failed", error "[watchdog] ..."), never a hang;
//  * latency degradation vs the fault-free baseline of the same scheme.
//
// A final wedge-demo cell (design N, chunk drop rate 1.0) asserts the
// watchdog path end to end: the bench exits non-zero if that cell does
// NOT fail with a watchdog error.
//
// The JSON artifact is BENCH_fault_resilience.json; every cell must end
// "ok", "failed" with a structured error, or "interrupted" — never
// "crashed"/"timeout" (scripts/check_cell_statuses.py enforces this in
// scripts/check_resilience.sh).
//
// Knobs: --list-schemes (print the registry and exit), --fault-rate R
// (replaces the sweep with the single rate R), --fault-sites a,b
// (subset of: chunk-drop, chunk-delay, channel-stall, swap-abort,
// hotness-corrupt, table-bit-flip; the default leaves table-bit-flip
// out — deliberate table corruption is *supposed* to fail the audit,
// see tests/fault_test.cc), --audit-interval N, --jobs, --smoke,
// --keep-going, HMM_CELL_TIMEOUT.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/table.hh"
#include "schemes/registry.hh"

using namespace hmm;

namespace {

[[nodiscard]] fault::FaultPlan make_plan(
    const std::vector<fault::FaultSite>& sites, double rate,
    std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  if (rate <= 0) return plan;  // empty plan: injection fully disabled
  for (const fault::FaultSite s : sites) {
    // Swap aborts are catastrophic per fire (the whole swap is lost), so
    // they run two decades below the per-chunk transient rate.
    const double r = s == fault::FaultSite::SwapAbort ? rate / 100 : rate;
    plan.add(s, r);
  }
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  bench::maybe_list_schemes(argc, argv);

  const std::uint64_t n = bench::scaled(300'000);
  std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
  const std::vector<std::string>& names = schemes::scheme_names();
  const std::uint64_t page = 256 * KiB;
  const std::uint64_t interval = 1'000;
  const std::uint64_t audits = bench::audit_interval(argc, argv, 4'096);
  const std::vector<fault::FaultSite> sites = bench::fault_sites(
      argc, argv,
      {fault::FaultSite::MigrationChunkDrop,
       fault::FaultSite::MigrationChunkDelay,
       fault::FaultSite::ChannelStall, fault::FaultSite::SwapAbort,
       fault::FaultSite::HotnessCorrupt});
  if (const double r = bench::fault_rate(argc, argv, -1); r >= 0)
    rates = {0.0, r};
  if (bench::smoke(argc, argv)) rates = {0.0, 1e-3};

  std::vector<WorkloadInfo> workloads = section4_workloads();
  WorkloadInfo w = workloads.front();
  for (const WorkloadInfo& cand : workloads)
    if (cand.name == "pgbench") w = cand;

  std::printf("Fault resilience: %s, %zu schemes, %s pages, %llu-access "
              "epochs, audit every %llu accesses (%llu accesses/cfg)\n\n",
              w.name.c_str(), names.size(), format_size(page).c_str(),
              static_cast<unsigned long long>(interval),
              static_cast<unsigned long long>(audits),
              static_cast<unsigned long long>(n));

  std::vector<runner::ExperimentSpec> grid;
  const std::string wk = "fault_resilience/" + w.name;
  for (const double rate : rates) {
    for (const std::string& s : names) {
      const std::string key = wk + "/r" + std::to_string(rate) + "/" + s;
      // One config shape for every scheme: the name picks the swap
      // design, the cache schemes use the geometry plus the partition
      // knob.
      MemSimConfig cfg =
          bench::migration_config(page, MigrationDesign::LiveMigration,
                                  interval);
      cfg.scheme = s;
      cfg.cache_fraction = 0.5;
      cfg.audit_interval = audits;
      cfg.fault = make_plan(sites, rate, runner::derive_seed(42, key));
      grid.push_back(bench::cell(key, wk, w, cfg, n));
    }
  }
  // Wedge demo: design N, every chunk completion dropped — the retry
  // budget exhausts on the first chunk and the swap can never finish.
  const std::string wedge_key = wk + "/wedge-demo/N";
  {
    MemSimConfig cfg =
        bench::migration_config(page, MigrationDesign::N, interval);
    cfg.audit_interval = audits;
    cfg.fault.seed = runner::derive_seed(42, wedge_key);
    cfg.fault.add(fault::FaultSite::MigrationChunkDrop, 1.0);
    grid.push_back(bench::cell(wedge_key, wk, w, cfg, n));
  }

  const runner::RunnerOptions opts =
      bench::runner_options(argc, argv, "BENCH_fault_resilience");
  bench::maybe_list_cells(grid, opts, argc, argv);
  const std::vector<runner::CellResult> cells =
      runner::ExperimentRunner(opts).run(grid);

  runner::ResultSink sink("BENCH_fault_resilience");
  sink.set_param("workload", w.name);
  sink.set_param("page", format_size(page));
  sink.set_param("interval", interval);
  sink.set_param("audit_interval", audits);
  sink.set_param("accesses", n);

  // Fault-free baseline latency per scheme (rate 0 is always first).
  TextTable t({"rate", "scheme", "status", "avg lat", "vs r=0", "swaps",
               "retries", "aborts", "degraded"});
  std::vector<double> base(names.size(), 0.0);
  std::size_t i = 0;
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    for (std::size_t si = 0; si < names.size(); ++si) {
      const runner::CellResult& c = cells[i++];
      const RunResult& r = c.result;
      if (ri == 0 && c.ok) base[si] = r.avg_latency;
      std::vector<std::string> row{TextTable::num(rates[ri], 6),
                                   names[si], c.status};
      if (c.ok) {
        const double ratio = base[si] > 0 ? r.avg_latency / base[si] : 0.0;
        if (ratio > 0) sink.add_derived(c.key, "latency_ratio", ratio);
        row.push_back(TextTable::num(r.avg_latency));
        row.push_back(ratio > 0 ? TextTable::num(ratio, 3) + "x" : "-");
        row.push_back(TextTable::num(static_cast<double>(r.swaps), 0));
        row.push_back(
            TextTable::num(static_cast<double>(r.chunk_retries), 0));
        row.push_back(TextTable::num(static_cast<double>(r.swap_aborts), 0));
        // Built with append, not operator+: GCC 12's -Wrestrict throws a
        // false positive on `const char* + std::string&&` here.
        std::string deg = "no";
        if (r.degraded) {
          deg = "@";
          deg += std::to_string(r.degraded_at);
          deg += "cy";
        }
        row.push_back(std::move(deg));
      } else {
        row.insert(row.end(), {"-", "-", "-", "-", "-", "-"});
      }
      t.add_row(std::move(row));
    }
  }
  t.print(std::cout);

  // The wedge demo must have failed, and failed on the watchdog.
  const runner::CellResult& wedge = cells.back();
  std::printf("\nwedge demo (design N, chunk drop rate 1.0): %s\n",
              wedge.ok ? "COMPLETED (unexpected!)" : wedge.error.c_str());
  bench::report_artifact(sink.write_json(cells));

  if (wedge.ok || wedge.error.find("[watchdog]") == std::string::npos) {
    std::cerr << "[fault_resilience] self-check failed: the wedged design-N "
                 "swap was not detected by the watchdog\n";
    return 1;
  }
  // The wedge cell is *expected* to fail; only the sweep cells gate the
  // exit code.
  const std::vector<runner::CellResult> sweep(cells.begin(), cells.end() - 1);
  return bench::finish(sweep, argc, argv);
}
