// RAS (reliability/availability/serviceability) layer: a deterministic
// media-error model under both memory tiers, SEC-DED ECC outcomes, a
// patrol scrubber, and the page-retirement state machine (DESIGN.md §11).
//
// Error model. Two fault sites drive everything, evaluated through the
// session's FaultInjector so error sequences are a pure function of the
// fault plan:
//   * MediaTransient — a transient multi/single-bit upset on an access or
//     scrub probe of a frame. A deterministic per-frame payload draw
//     splits it SEC-DED style: with probability `due_fraction` it is a
//     double-bit detected-uncorrectable error (DUE — charged
//     `RasEngine::kDuePenalty` cycles and flags the frame for
//     retirement), otherwise a corrected single-bit error (CE — charged
//     `RasEngine::kCePenalty` cycles).
//   * MediaStuckAt — a cell in the frame fails permanently. One stuck
//     cell is corrected by SEC on every subsequent read (a latent error
//     until something *probes* the frame — exactly what the patrol
//     scrubber exists to surface); reaching
//     `RasEngine::kStuckRetireThreshold` stuck cells risks
//     uncorrectable combinations and flags the frame. A demand access
//     that collides with a patrol probe waits out the rest of its
//     `RasEngine::kScrubBusy` cycles.
//   Repeat offenders escalate: a frame accumulating `ce_retire_threshold`
//   corrected errors is flagged even without a hard fault.
//
// Retirement is evacuate-then-blacklist: a flagged frame is only
// *pending* until the owning scheme moves its occupant off through its
// own machinery (design N bulk-copies to a spare, N-1/Live park the
// empty slot, nomad runs a shadow transaction, the static schemes remap
// to a spare); only then is the frame *retired*, the state validate(),
// can_swap(), and the auditor enforce. Placements a scheme cannot
// express are *pinned*: served in place forever, never written anew.
// Capacity degrades gracefully — spares (reserved at boot like DRAM
// sparing / post-package repair) absorb retirements — until healthy
// capacity drops below `capacity_floor`, which raises a structured
// SimError(CapacityExhausted) instead of wedging.
//
// Enforcement: MemSim hard-stops any demand access routed to a retired
// frame, and its auditor route sweep translates, on every audit, a
// rolling sixteenth of the OS pages plus the identity page of every
// retired frame (all pages once more at finish()). A page left on a
// retired frame is thus reported within 16 audits, at the next audit if
// it is the frame's identity page, and by the end of the run at the
// latest.
//
// Determinism: fire/no-fire decisions come from the injector's per-site
// streams; ECC payload draws are a pure function of (plan seed, frame,
// per-frame draw index), so outcomes are independent of the order in
// which *other* frames are probed. With no media rules in the fault plan
// every hook is a no-op and runs are bit-identical to a RAS-less build.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/types.hh"
#include "core/geometry.hh"
#include "core/ras_view.hh"
#include "fault/fault_injector.hh"

namespace hmm::ras {

struct RasConfig {
  bool enabled = false;
  /// SEC-DED split: fraction of transient media events that are
  /// double-bit (detected-uncorrectable); the rest are corrected.
  double due_fraction = 0.05;
  /// Corrected-error count at which a frame is declared failing.
  std::uint64_t ce_retire_threshold = 16;
  /// Cycles between patrol probes (one frame per probe); 0 disables.
  Cycle scrub_interval = 20'000;
  /// Frames reserved data-free at boot, just below Ω. Their identity
  /// pages are invisible to the OS — workloads must not address them.
  unsigned spare_frames = 4;
  /// Healthy-capacity floor as a fraction of total frames; dropping
  /// below raises SimError(CapacityExhausted).
  double capacity_floor = 0.75;
};

struct RasMetrics {
  std::uint64_t demand_corrected = 0;
  std::uint64_t demand_uncorrectable = 0;
  std::uint64_t scrub_probes = 0;
  std::uint64_t scrub_corrected = 0;
  std::uint64_t scrub_uncorrectable = 0;
  std::uint64_t scrub_collisions = 0;  ///< demand paid RasEngine::kScrubBusy
  std::uint64_t stuck_faults = 0;      ///< stuck cells that developed
  std::uint64_t frames_retired = 0;
  std::uint64_t frames_pinned = 0;
  std::uint64_t evacuations = 0;       ///< remap-service relocations
  std::uint64_t evacuation_bytes = 0;  ///< bytes moved by the remap path
  std::uint64_t spares_used = 0;
};

/// RasMetrics' wire form, shared by 'RASE' and the journal's 'CELL'.
template <class Ar>
void metrics_io(Ar& ar, RasMetrics& m) {
  snap::u64(ar, m.demand_corrected);
  snap::u64(ar, m.demand_uncorrectable);
  snap::u64(ar, m.scrub_probes);
  snap::u64(ar, m.scrub_corrected);
  snap::u64(ar, m.scrub_uncorrectable);
  snap::u64(ar, m.scrub_collisions);
  snap::u64(ar, m.stuck_faults);
  snap::u64(ar, m.frames_retired);
  snap::u64(ar, m.frames_pinned);
  snap::u64(ar, m.evacuations);
  snap::u64(ar, m.evacuation_bytes);
  snap::u64(ar, m.spares_used);
}

/// One retirement, for the availability bench's capacity-vs-time curve.
struct RetirementEvent {
  Cycle at = 0;
  PageId frame = kInvalidPage;
};

/// RetirementEvent's wire form, shared by 'RASE' and the journal's 'CELL'.
template <class Ar>
void retirement_io(Ar& ar, RetirementEvent& e) {
  snap::u64(ar, e.at);
  snap::u64(ar, e.frame);
}

class RasEngine final : public RasFrameView {
 public:
  static constexpr std::size_t kMaxRetirementLog = 64;
  /// Stuck-at fault count at which a frame is declared failing.
  static constexpr std::uint64_t kStuckRetireThreshold = 2;
  /// Cycles a probed frame stays busy; a colliding demand access pays
  /// the remainder.
  static constexpr Cycle kScrubBusy = 200;
  static constexpr Cycle kCePenalty = 50;  ///< ECC correction latency
  static constexpr Cycle kDuePenalty = 2'000;  ///< DUE recovery cost

  RasEngine(const RasConfig& cfg, const Geometry& geom,
            fault::FaultInjector* injector);

  [[nodiscard]] const RasConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const RasMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<RetirementEvent>& retirement_log()
      const noexcept {
    return retire_log_;
  }

  // --- RasFrameView ---------------------------------------------------------
  [[nodiscard]] bool retired(PageId frame) const noexcept override {
    return state(frame) == kRetired;
  }
  [[nodiscard]] bool quarantined(PageId frame) const noexcept override {
    return state(frame) != kHealthy;
  }
  [[nodiscard]] bool reserved_spare(PageId frame) const noexcept override {
    return boot_spare(frame);
  }

  // --- retirement workflow -------------------------------------------------
  // The engine is passive policy + state: it flags failing frames as
  // pending; the scheme owns the machinery that can actually move data,
  // performs the evacuation, and reports back through
  // complete_retirement() / pin_frame().

  /// Media-error + patrol-scrub hook on the demand path: `frame` is the
  /// machine frame the access was routed to. Returns added latency (ECC
  /// correction, uncorrectable recovery, scrub collision); may flag the
  /// frame as pending retirement, and may throw
  /// SimError(CapacityExhausted) when health drops below the floor.
  Cycle on_demand_access(PageId frame, Cycle now);
  [[nodiscard]] bool has_pending() const noexcept {
    return pending_count() != 0;
  }
  /// Frame is flagged as failing and awaits its evacuation.
  [[nodiscard]] bool pending(PageId frame) const noexcept {
    return state(frame) == kPending;
  }
  /// Smallest-id pending frame (deterministic order); kInvalidPage when
  /// none.
  [[nodiscard]] PageId next_pending() const noexcept;
  /// The frame has been evacuated (or proven data-free): blacklist it.
  void complete_retirement(PageId frame, Cycle now);
  /// The frame's occupant cannot be expressed anywhere else by this
  /// scheme: keep serving it in place, but never place anything new there.
  /// May throw SimError(CapacityExhausted).
  void pin_frame(PageId frame);
  /// Next available spare frame (kInvalidPage when the pool is dry).
  [[nodiscard]] PageId peek_spare() const noexcept;
  /// Remove `frame` from the pool once it has been pressed into service.
  void consume_spare(PageId frame);

  // --- remap service (schemes without relocation machinery) ----------------
  /// Permanently remap `frame` onto a spare (a bulk copy is charged) and
  /// retire it. Returns the spare, or nullopt when the pool is dry (the
  /// caller pins the frame instead).
  std::optional<PageId> remap_frame(PageId frame, Cycle now);
  /// Assign a spare stand-in for a frame that was retired *without* one
  /// (stale at retirement time) but must now receive data again — e.g. a
  /// flat-HMA page evicted from a failing slot back to its retired home.
  /// Returns the spare, or nullopt when the pool is dry.
  std::optional<PageId> assign_spare_for(PageId frame);
  /// Follow the remap chain from `frame` to the frame actually serving it
  /// (a spare standing in for a spare when a consumed spare fails too).
  [[nodiscard]] PageId resolve(PageId frame) const noexcept;
  /// All retired frames, ascending (for scheme audit sweeps).
  [[nodiscard]] std::vector<PageId> retired_frames() const;

  // --- capacity bookkeeping ------------------------------------------------
  [[nodiscard]] std::uint64_t retired_count() const noexcept {
    return in_state_[kRetired];
  }
  [[nodiscard]] std::uint64_t pinned_count() const noexcept {
    return in_state_[kPinned];
  }
  [[nodiscard]] std::uint64_t pending_count() const noexcept {
    return in_state_[kPending];
  }
  [[nodiscard]] std::uint64_t spares_left() const noexcept {
    return pool_.size();
  }
  /// Frames currently able to hold data: total minus lost frames, plus
  /// the spares already standing in for lost ones.
  [[nodiscard]] std::uint64_t healthy_frames() const noexcept;

  /// Test hook: flag `frame` as failing without a media event (drives the
  /// mid-swap retirement choreography tests deterministically).
  void flag_frame_for_test(PageId frame) { flag(frame, 0); }

  // --- checkpoint/restore --------------------------------------------------
  // Serialized only when RAS is enabled (MemSim gates the call), so the
  // pre-RAS snapshot layout is unchanged. The frame states are written as
  // ascending pending, retired and pinned lists and the maps sorted by
  // key. Restore refuses, as SimError(Snapshot), a frame id past the
  // geometry, a frame in two of the lists, a pool entry or remap target
  // that is not a boot-reserved spare, a remap entry for a frame that is
  // not retired, and a remap chain longer than the spare pool (a cycle
  // resolve() would never leave).
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  /// Where a frame stands in the retirement workflow (see the top).
  enum FrameState : std::uint8_t { kHealthy, kPending, kRetired, kPinned };

  template <class Ar>
  void io(Ar& ar);

  /// Healthy for a frame past the geometry (a route the audit rejects).
  [[nodiscard]] FrameState state(PageId frame) const noexcept {
    return frame < state_.size() ? state_[frame] : kHealthy;
  }
  /// Moves `frame` from `from` to `to`, HMM_CHECKing (`what`) it was there.
  void move(PageId frame, FrameState from, FrameState to, const char* what);

  /// Spares sit just below the ghost page: omega-spare .. omega-1.
  [[nodiscard]] bool boot_spare(PageId frame) const noexcept {
    return frame < geom_.omega() &&
           frame >= geom_.omega() - cfg_.spare_frames;
  }

  /// Per-frame health record (sparse: only frames with history).
  struct FrameHealth {
    std::uint64_t transients = 0;  ///< MediaTransient events observed
    std::uint64_t corrected = 0;   ///< CEs (incl. stuck-cell corrections)
    std::uint64_t stuck = 0;       ///< permanently failed cells
    std::uint64_t draws = 0;       ///< ECC payload draws consumed
    Cycle last_scrub = 0;          ///< when the scrubber last held it
  };

  /// One media probe of `frame` (demand access or patrol scrub). Returns
  /// the latency penalty; flags the frame when it crosses a threshold.
  Cycle probe(PageId frame, Cycle now, bool scrub);
  /// Run the patrol scrubber up to `now` (one frame per interval).
  void scrub_to(Cycle now);
  void flag(PageId frame, Cycle now);
  /// Raises SimError(CapacityExhausted) once health is below the floor.
  void check_capacity() const;
  /// Deterministic ECC payload for this frame's next media event: a pure
  /// function of (plan seed, frame, draw index).
  [[nodiscard]] double payload_draw(FrameHealth& h, PageId frame);

  RasConfig cfg_;   // no-snapshot(construction-time config)
  Geometry geom_;   // no-snapshot(construction-time config)
  // no-snapshot(not owned; the injector serializes itself)
  fault::FaultInjector* injector_ = nullptr;
  // no-snapshot(derived from cfg_ in the ctor)
  std::uint64_t floor_frames_ = 0;

  std::unordered_map<PageId, FrameHealth> health_;
  std::vector<FrameState> state_;  ///< one byte per frame
  // no-snapshot(derived from state_; recounted on restore)
  std::array<std::uint64_t, 4> in_state_{};  ///< frames per FrameState
  std::vector<PageId> pool_;  ///< unconsumed spares, ascending ids
  std::unordered_map<PageId, PageId> remap_;  ///< frame -> spare stand-in
  PageId scrub_cursor_ = 0;
  Cycle next_scrub_at_ = 0;
  std::vector<RetirementEvent> retire_log_;
  RasMetrics metrics_;
};

}  // namespace hmm::ras
