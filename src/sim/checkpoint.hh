// Checkpoint files: atomic persistence of a mid-flight simulation.
//
// A checkpoint captures (workload generator cursor, complete MemSim state,
// replay progress) at an access boundary — which the N-1 choreography
// guarantees is also a table-consistent boundary (DESIGN.md maps the
// Fig 8 step cases). Restoring into a freshly constructed MemSim+workload
// pair and replaying the remaining accesses yields final stats
// bit-identical to an uninterrupted run.
//
// File layout: [magic u32 "HMMK"][format version u32][fingerprint u64]
// followed by the snap:: sections of the workload and the simulator, then
// a trailing "DONE" section. The fingerprint binds a checkpoint to the
// exact cell (key, seed, access budget) that wrote it, so a stale file
// from a renamed sweep can never be resumed silently.
//
// Writes are crash-atomic: the rendered buffer goes to `<path>.tmp`, is
// fsync'd, and is renamed over `<path>` — a reader sees either the old
// complete checkpoint or the new complete checkpoint, never a torn one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/snapshot.hh"
#include "sim/memsim.hh"
#include "trace/generator.hh"

namespace hmm {

/// Progress record stored in (and recovered from) a checkpoint file: the
/// replay loop's cursor (sim/replay.hh).
struct CheckpointMeta {
  std::uint64_t fingerprint = 0;
  std::uint64_t accesses_done = 0;   ///< references replayed, warm-up included
  bool stats_reset_done = false;     ///< warm-up finished, stats cleared
};

/// Binds a checkpoint to one experiment cell: FNV-1a over the cell key,
/// seed, and total access budget.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(const std::string& key,
                                                   std::uint64_t seed,
                                                   std::uint64_t accesses);

/// Serializes workload + sim + meta and writes the file atomically.
/// Throws SimError(Snapshot) if the file cannot be written.
void save_checkpoint(const std::string& path, const CheckpointMeta& meta,
                     const SyntheticWorkload& workload, const MemSim& sim);

/// Loads `path` into a freshly built (same-config) workload + sim pair.
/// Returns nullopt when the file does not exist; throws SimError(Snapshot)
/// on corruption, version skew, a fingerprint mismatch against
/// `expected_fingerprint`, or progress past the cell's `accesses` budget.
[[nodiscard]] std::optional<CheckpointMeta> load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint,
    std::uint64_t accesses, SyntheticWorkload& workload, MemSim& sim);

/// Best-effort removal of a checkpoint file (cell completed).
void remove_checkpoint(const std::string& path) noexcept;

/// Atomic whole-file write used by checkpoints, the journal, and the
/// ResultSink: write `<path>.tmp`, fsync, rename over `<path>`. Returns
/// false (and cleans up the temp file) on any I/O error.
[[nodiscard]] bool atomic_write_file(const std::string& path,
                                     const void* data, std::size_t size);

}  // namespace hmm
