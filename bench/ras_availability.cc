// RAS availability: what media errors cost each scheme, and what the
// RAS layer buys back — across the whole scheme registry. Sweeps media
// error rate x scheme {N, N-1, Live, nomad, Alloy, flat-HMA, MemCache}
// with the deterministic media-error model armed (transient bit flips at
// rate R, permanent stuck-at cells at R/4) and the patrol scrubber on.
//
// What the table shows:
//  * ECC outcomes per cell: corrected errors (CE) absorbed at a small
//    fixed latency, detected-uncorrectable errors (DUE) paying the
//    recovery penalty — the demand-latency ratio vs the error-free
//    baseline of the same scheme quantifies the availability cost;
//  * the scrub columns: how many latent errors the patrol walk surfaced
//    before a demand read could trip over them;
//  * the retirement state machine: frames retired (occupants evacuated
//    through the scheme's own migration machinery, spares consumed) vs
//    pinned (no expressible relocation — served in place), and the
//    healthy-frame count left at the end;
//  * a scrub-off row per scheme at the top rate: with the patrol walk
//    disabled every latent error waits for a demand access, so DUE
//    recovery lands on the critical path — the demand-latency gap
//    between the scrub-on and scrub-off rows is the scrubber's value.
//
// Self-check: the rate-0 cells run with the RAS layer enabled but no
// media plan armed — they must report zero error events and zero
// retirements (the engine idles; only scrub probes tick). The bench
// exits non-zero if any rate-0 cell reports RAS activity.
//
// The JSON artifact is BENCH_ras_availability.json; each cell carries
// the full RAS metrics block plus the retirement log (capacity vs
// time). Every cell must end "ok" or "failed" with a structured error
// (a capacity-floor breach is SimError(CapacityExhausted), not a
// crash); scripts/check_cell_statuses.py enforces this in
// scripts/check_resilience.sh.
//
// Knobs: --list-schemes, --fault-rate R (replaces the sweep with the
// single rate R), --audit-interval N, --jobs, --smoke, --keep-going,
// HMM_CELL_TIMEOUT.
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

[[nodiscard]] fault::FaultPlan media_plan(double rate, std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  if (rate <= 0) return plan;  // empty plan: injection fully disabled
  plan.add(fault::FaultSite::MediaTransient, rate);
  // Permanent faults are rarer than transients but each one keeps firing
  // until the frame retires, so they run well below the transient rate.
  plan.add(fault::FaultSite::MediaStuckAt, rate / 4);
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Sweep sweep(argc, argv, "BENCH_ras_availability",
                     {"--fault-rate", "--audit-interval"});
  const std::uint64_t n = bench::scaled(300'000);
  std::vector<double> rates = {0.0, 1e-5, 1e-4, 1e-3};
  const std::vector<std::string>& names = schemes::scheme_names();
  const std::uint64_t page = 256 * KiB;
  const std::uint64_t interval = 1'000;
  const std::uint64_t audits = sweep.number<std::uint64_t>(
      "--audit-interval", 4'096, 0, std::numeric_limits<std::uint64_t>::max());
  if (const double r = sweep.number("--fault-rate", -1.0, 0.0, 1.0); r > 0)
    rates = {0.0, r};
  if (sweep.smoke()) rates = {0.0, 1e-3};
  const double top_rate = rates.back();
  const WorkloadInfo& w = bench::section4_workload("pgbench");

  std::printf("RAS availability: %s, %zu schemes, %s pages, media rates up "
              "to %g (stuck-at at rate/4), audit every %llu accesses "
              "(%llu accesses/cfg)\n\n",
              w.name.c_str(), names.size(), format_size(page).c_str(),
              top_rate, static_cast<unsigned long long>(audits),
              static_cast<unsigned long long>(n));

  // One config shape for every scheme (as in fault_resilience): the name
  // picks the swap design, the cache schemes read the geometry + partition
  // knob. RAS is on in every cell; `scrub` toggles the patrol walk.
  const auto make_cfg = [&](const std::string& s, double rate, bool scrub,
                            const std::string& key) {
    MemSimConfig cfg = bench::migration_config(
        page, MigrationDesign::LiveMigration, interval);
    cfg.scheme = s;
    cfg.cache_fraction = 0.5;
    cfg.audit_interval = audits;
    cfg.fault = media_plan(rate, runner::derive_seed(42, key));
    cfg.ras.enabled = true;
    // Denser than the default patrol: the sec4 geometry has 16K frames,
    // so the walk needs a short probe interval to cover them within a
    // scaled-down replay.
    cfg.ras.scrub_interval = scrub ? 1'000 : 0;
    return cfg;
  };

  std::vector<runner::ExperimentSpec> grid;
  const std::string wk = "ras_availability/" + w.name;
  for (const double rate : rates) {
    for (const std::string& s : names) {
      const std::string key = wk + "/r" + std::to_string(rate) + "/" + s;
      grid.push_back(
          bench::cell(key, wk, w, make_cfg(s, rate, true, key), n));
    }
  }
  // Scrub-off comparison at the top rate: every latent error waits for a
  // demand access.
  for (const std::string& s : names) {
    const std::string key =
        wk + "/noscrub-r" + std::to_string(top_rate) + "/" + s;
    grid.push_back(
        bench::cell(key, wk, w, make_cfg(s, top_rate, false, key), n));
  }
  const std::vector<runner::CellResult>& cells = sweep.run(grid);

  runner::ResultSink& sink = sweep.sink();
  sink.set_param("workload", w.name);
  sink.set_param("page", format_size(page));
  sink.set_param("interval", interval);
  sink.set_param("audit_interval", audits);
  sink.set_param("accesses", n);

  const double total_frames =
      static_cast<double>(params::kTotalMemory / page);
  TextTable t({"rate", "scrub", "scheme", "status", "avg lat", "vs r=0",
               "CE", "DUE", "scrub hits", "retired", "pinned", "healthy"});
  std::vector<double> base(names.size(), 0.0);
  bool quiet_baseline = true;
  const auto add_rows = [&](std::size_t first, double rate, bool scrub) {
    for (std::size_t si = 0; si < names.size(); ++si) {
      const runner::CellResult& c = cells[first + si];
      const RunResult& r = c.result;
      if (rate == 0.0 && scrub && c.ok) {
        base[si] = r.avg_latency;
        if (r.ras.demand_corrected + r.ras.demand_uncorrectable +
                r.ras.scrub_corrected + r.ras.scrub_uncorrectable +
                r.ras.frames_retired + r.ras.frames_pinned >
            0)
          quiet_baseline = false;
      }
      std::vector<std::string> row{TextTable::num(rate, 6),
                                   scrub ? "on" : "off", names[si],
                                   c.status};
      if (c.ok) {
        const double ratio = base[si] > 0 ? r.avg_latency / base[si] : 0.0;
        if (ratio > 0) sink.add_derived(c.key, "latency_ratio", ratio);
        sink.add_derived(
            c.key, "healthy_fraction",
            static_cast<double>(r.ras_healthy_frames) / total_frames);
        row.push_back(TextTable::num(r.avg_latency));
        row.push_back(ratio > 0 ? TextTable::num(ratio, 3) + "x" : "-");
        row.push_back(TextTable::num(
            static_cast<double>(r.ras.demand_corrected), 0));
        row.push_back(TextTable::num(
            static_cast<double>(r.ras.demand_uncorrectable), 0));
        row.push_back(TextTable::num(
            static_cast<double>(r.ras.scrub_corrected +
                                r.ras.scrub_uncorrectable), 0));
        row.push_back(
            TextTable::num(static_cast<double>(r.ras.frames_retired), 0));
        row.push_back(
            TextTable::num(static_cast<double>(r.ras.frames_pinned), 0));
        row.push_back(
            TextTable::num(static_cast<double>(r.ras_healthy_frames), 0));
      } else {
        row.insert(row.end(), {"-", "-", "-", "-", "-", "-", "-", "-"});
      }
      t.add_row(std::move(row));
    }
  };
  for (std::size_t ri = 0; ri < rates.size(); ++ri)
    add_rows(ri * names.size(), rates[ri], true);
  add_rows(rates.size() * names.size(), top_rate, false);
  t.print(std::cout);
  return sweep.finish(
      quiet_baseline
          ? ""
          : "a rate-0 cell reported RAS error events or retirements");
}
