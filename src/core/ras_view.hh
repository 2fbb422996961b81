// Core-side view of the RAS (reliability/availability/serviceability)
// layer's frame bookkeeping.
//
// The RAS engine (src/ras/) owns the media-error state: which machine
// frames are retired (evacuated and blacklisted), which are quarantined
// (flagged as failing but not yet evacuated), and which are reserved
// spares (held data-free at boot, like a DRAM vendor's spare rows, so
// retirement has somewhere to move data to). Core components — the
// translation table's validate() and the migration engine's candidate
// screening — only ever need these three predicates, so they depend on
// this tiny interface instead of the RAS library, keeping the library
// layering acyclic (ras depends on core, never the reverse).
#pragma once

#include "common/types.hh"

namespace hmm {

class RasFrameView {
 public:
  virtual ~RasFrameView() = default;

  /// Frame was evacuated and blacklisted: it holds no live data and no
  /// placement, route, or copy plan may ever reference it again.
  [[nodiscard]] virtual bool retired(PageId frame) const noexcept = 0;

  /// Frame is retired, pending retirement, or pinned-failing: nothing
  /// new may be placed in it (existing data may still be read while the
  /// evacuation is in flight).
  [[nodiscard]] virtual bool quarantined(PageId frame) const noexcept = 0;

  /// Frame belongs to the RAS spare pool: reserved data-free at boot,
  /// its identity page invisible to the OS (like Ω). Stays true after the
  /// spare is pressed into service replacing a retired frame — the
  /// identity page never becomes resident; only relocated data lives
  /// there, recorded in the placement map.
  [[nodiscard]] virtual bool reserved_spare(PageId frame) const noexcept = 0;
};

}  // namespace hmm
