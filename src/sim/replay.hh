// The replay sequence every measured run shares (DESIGN.md §6 item 1):
// an instant-migration warm-up, a drain, copy traffic on and statistics
// cleared, then the measurement and a final drain. It runs in chunks with
// a hook between them; run_chunk() keeps no per-call state, so the chunks
// change no result.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/checkpoint.hh"
#include "sim/memsim.hh"
#include "trace/generator.hh"

namespace hmm {

/// References replayed between two hook calls.
inline constexpr std::uint64_t kReplayChunk = 1024;

/// Called at a chunk boundary with the replay's progress; returning false
/// stops the replay there.
using ReplayHook = std::function<bool(const CheckpointMeta&)>;

/// Replays `workload` from `at` (a fresh run's {}, or a restored
/// checkpoint's record) to `total` references, the first `warm` of them
/// as the warm-up: chunks to `warm`, finish(), instant migration off,
/// reset_stats(); chunks to `total`, finish(). `warm` == 0 skips the
/// warm-up and the reset. `between` runs after every chunk (for the one
/// that ends the warm-up, after the reset), so also at `total` before the
/// last finish(). When it returns false the replay stops there, the sim
/// as the hook saw it, and returns false; otherwise it returns true.
bool replay(MemSim& sim, SyntheticWorkload& workload, std::uint64_t warm,
            std::uint64_t total, CheckpointMeta at = {},
            const ReplayHook& between = {});

}  // namespace hmm
