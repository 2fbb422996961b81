#include "sim/tuner.hh"

#include <algorithm>

#include "sim/replay.hh"

namespace hmm {

ProbeResult GranularityTuner::probe(const WorkloadFactory& make,
                                    std::uint64_t page, std::uint64_t window,
                                    std::uint64_t seed) const {
  MemSimConfig cfg;
  Geometry& g = cfg.controller.geom;
  g.page_bytes = page;
  g.sub_block_bytes = std::min(g.sub_block_bytes, page);
  cfg.controller.swap_interval = kSwapInterval;

  MemSim sim(cfg);
  auto w = make(seed);
  replay(sim, *w,
         static_cast<std::uint64_t>(static_cast<double>(window) *
                                    kWarmupFraction),
         window);
  const RunResult r = sim.result();
  return ProbeResult{page, r.avg_latency, r.on_package_fraction};
}

TunerOutcome GranularityTuner::tune(const WorkloadFactory& make,
                                    std::uint64_t seed) const {
  HMM_CHECK(!cfg_.candidate_pages.empty(),
            "granularity tuner needs at least one candidate page size");
  TunerOutcome out;
  std::vector<std::uint64_t> survivors = cfg_.candidate_pages;
  std::uint64_t window = cfg_.probe_accesses;

  for (unsigned round = 0; round <= cfg_.rounds && survivors.size() > 1;
       ++round) {
    std::vector<ProbeResult> results;
    results.reserve(survivors.size());
    for (const std::uint64_t page : survivors) {
      const ProbeResult r = probe(make, page, window, seed + round);
      results.push_back(r);
      out.probes.push_back(r);
    }
    std::sort(results.begin(), results.end(),
              [](const ProbeResult& a, const ProbeResult& b) {
                return a.avg_latency < b.avg_latency;
              });
    // Keep the better half (at least one).
    const std::size_t keep = std::max<std::size_t>(1, results.size() / 2);
    survivors.clear();
    for (std::size_t i = 0; i < keep; ++i)
      survivors.push_back(results[i].page_bytes);
    window *= 2;
  }

  // Final confirmation run on the last survivor.
  const ProbeResult final =
      probe(make, survivors.front(), window, seed + 100);
  out.probes.push_back(final);
  out.best_page_bytes = final.page_bytes;
  out.best_latency = final.avg_latency;
  return out;
}

}  // namespace hmm
