#include "sim/replay.hh"

#include <algorithm>

namespace hmm {

bool replay(MemSim& sim, SyntheticWorkload& workload, std::uint64_t warm,
            std::uint64_t total, CheckpointMeta at,
            const ReplayHook& between) {
  const auto warming = [&] { return warm > 0 && !at.stats_reset_done; };
  // A run restored mid-warm-up has the flag back from its snapshot
  // already; arming it again only assigns it.
  if (warming()) sim.set_instant_migration(true);
  while (at.accesses_done < total || warming()) {
    const std::uint64_t target = warming() ? warm : total;
    if (at.accesses_done < target) {
      const std::uint64_t n =
          std::min(kReplayChunk, target - at.accesses_done);
      sim.run_chunk(workload, n);
      at.accesses_done += n;
    }
    if (warming() && at.accesses_done >= warm) {
      sim.finish();
      sim.set_instant_migration(false);
      sim.reset_stats();
      at.stats_reset_done = true;
    }
    if (between && !between(at)) return false;
  }
  sim.finish();
  return true;
}

}  // namespace hmm
