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
// watchdog path end to end: the bench exits 1 if that cell runs to an end
// other than a watchdog error.
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
#include <limits>
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
  bench::Sweep sweep(argc, argv, "BENCH_fault_resilience",
                     {"--fault-rate", "--fault-sites", "--audit-interval"});
  const std::uint64_t n = bench::scaled(300'000);
  std::vector<double> rates = {0.0, 1e-4, 1e-3, 1e-2};
  const std::vector<std::string>& names = schemes::scheme_names();
  const std::uint64_t page = 256 * KiB;
  const std::uint64_t interval = 1'000;
  const std::uint64_t audits = sweep.number<std::uint64_t>(
      "--audit-interval", 4'096, 0, std::numeric_limits<std::uint64_t>::max());
  std::vector<std::string> site_names = {"chunk-drop", "chunk-delay",
                                         "channel-stall", "swap-abort",
                                         "hotness-corrupt"};
  if (auto listed = sweep.list("--fault-sites")) site_names = *listed;
  std::vector<fault::FaultSite> sites;
  for (const std::string& name : site_names) {
    fault::FaultSite s{};
    if (!fault::site_from_name(name, s)) {
      std::cerr << "unknown fault site '" << name
                << "' (see --help in README: chunk-drop, chunk-delay, "
                   "swap-abort, channel-stall, table-bit-flip, "
                   "hotness-corrupt, media-transient, media-stuck-at)\n";
      return 2;
    }
    sites.push_back(s);
  }
  if (const double r = sweep.number("--fault-rate", -1.0, 0.0, 1.0); r >= 0)
    rates = {0.0, r};
  if (sweep.smoke()) rates = {0.0, 1e-3};
  const WorkloadInfo& w = bench::section4_workload("pgbench");

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
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  runner::ResultSink& sink = sweep.sink();
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

  // The wedge demo must have failed, and failed on the watchdog; that
  // failure is the self-check's, so it does not gate the exit code. A demo
  // the interrupt kept from finishing is not judged: finish() counts it
  // with the other interrupted cells.
  const runner::CellResult& wedge = cells.back();
  std::printf("\nwedge demo (design N, chunk drop rate 1.0): %s\n",
              wedge.ok ? "COMPLETED (unexpected!)" : wedge.error.c_str());
  if (wedge.status == "interrupted") return sweep.finish();
  const bool caught =
      !wedge.ok && wedge.error.find("[watchdog]") != std::string::npos;
  return sweep.finish(
      caught ? "" : "the wedged design-N swap was not detected by the watchdog",
      wedge_key);
}
