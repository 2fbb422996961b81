// A memory region (on-package SiP DRAM or off-package DIMMs): a set of
// channels behind one scheduler clock, plus the region's fixed wire/pin
// latency ledger from Table II.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/params.hh"
#include "common/types.hh"
#include "dram/channel.hh"
#include "fault/fault_injector.hh"

namespace hmm {

class DramSystem {
 public:
  /// Builds the paper's configuration for the given region:
  /// off-package = 4 channels x 8 banks of DDR3-1333;
  /// on-package  = 1 wide channel x 128 banks behind the interposer.
  static DramSystem make(Region region,
                         SchedulerPolicy policy = SchedulerPolicy::FrFcfs);

  DramSystem(Region region, const DramTiming& timing, unsigned channels,
             SchedulerPolicy policy);

  /// `channel_hint` >= 0 overrides address-based channel routing — used by
  /// the migration engine, whose streaming chunks physically stripe across
  /// all channels (line interleaving) and are modelled as rotating whole
  /// chunks channel by channel.
  RequestId submit(MachAddr addr, std::uint32_t bytes, AccessType type,
                   Priority priority, Cycle arrival, int channel_hint = -1) {
    return submit(DramRequest{.addr = addr,
                              .bytes = bytes,
                              .type = type,
                              .priority = priority,
                              .arrival = arrival,
                              .issued = arrival},
                  channel_hint);
  }
  /// Same, for a request built by the caller (its `id` is assigned here).
  RequestId submit(DramRequest req, int channel_hint = -1);

  /// Returns at once when no channel has a decision due by `now`, and
  /// drains only the channels that have one.
  void drain_until(Cycle now) {
    if (due_ > now) return;
    drain_due(now);
  }
  /// Issues everything queued; returns the latest finish time of any
  /// channel's last request, or `upto` if that is later.
  Cycle drain_all(Cycle upto);

  /// Completions from all channels since the last call: per channel in
  /// issue order, channels in index order. The view stays valid, across
  /// submit() too, until the next take_completions(). Returns at once
  /// when no drain issued anything since the last call.
  [[nodiscard]] std::span<const DramCompletion> take_completions() {
    if (completed_ == 0) return {};
    return take_completed();
  }

  [[nodiscard]] Region region() const noexcept { return region_; }

  /// Arrival push-back of a ChannelStall fault (a transient
  /// bus/retraining stall).
  static constexpr Cycle kFaultStallCycles = 500;

  /// Attach a fault injector (nullptr detaches). Not owned. Site
  /// ChannelStall: a submitted request's arrival is pushed back by
  /// kFaultStallCycles.
  void set_fault_injector(fault::FaultInjector* inj) noexcept {
    injector_ = inj;
  }
  [[nodiscard]] unsigned channel_of(MachAddr addr) const noexcept;
  [[nodiscard]] std::size_t backlog() const noexcept;
  [[nodiscard]] std::size_t demand_backlog() const noexcept {
    return demand_queued_;
  }

  /// Fixed per-access latency outside the DRAM device (controller pipeline,
  /// pins, board/interposer wires) — Table II ledger.
  [[nodiscard]] Cycle wire_overhead() const noexcept {
    return region_ == Region::OnPackage ? params::kOnPackageWireOverhead
                                        : params::kOffPackageWireOverhead;
  }

  [[nodiscard]] const DramTiming& timing() const noexcept { return timing_; }
  [[nodiscard]] unsigned num_channels() const noexcept {
    return static_cast<unsigned>(channels_.size());
  }
  [[nodiscard]] const DramChannel& channel(unsigned i) const noexcept {
    return channels_[i];
  }

  // Aggregated demand statistics across channels.
  [[nodiscard]] double mean_queue_delay() const;
  [[nodiscard]] double row_hit_rate() const;
  [[nodiscard]] std::uint64_t demand_bytes() const;
  [[nodiscard]] std::uint64_t background_bytes() const;
  void reset_stats();

  /// Checkpoint/restore: the id counter plus every channel's state. The
  /// region/timing/mapping are construction-time constants and are only
  /// cross-checked, not restored; due_, demand_queued_ and completed_ are
  /// re-derived from the channels.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  template <class Ar>
  void io(Ar& ar);
  /// drain_until() past its idle check: drains the channels with a
  /// decision due and updates due_, demand_queued_ and completed_.
  void drain_due(Cycle now);
  /// take_completions() past its idle check: one completing channel's
  /// own buffer as is, or the completing channels' buffers merged.
  [[nodiscard]] std::span<const DramCompletion> take_completed();

  Region region_;
  DramTiming timing_;      // no-snapshot(construction-time config)
  AddressMapping mapping_;  // no-snapshot(construction-time config)
  std::vector<DramChannel> channels_;
  /// Minimum next_decision() over the channels: nothing is due before it.
  // no-snapshot(derived from the channels; recomputed on restore)
  Cycle due_ = kNeverCycle;
  /// Sum of the channels' demand backlogs.
  // no-snapshot(derived from the channels; recomputed on restore)
  std::size_t demand_queued_ = 0;
  /// Bit i set: channel i holds completions not yet taken.
  // no-snapshot(derived from the channels; recomputed on restore)
  std::uint64_t completed_ = 0;
  /// What the last take_completions() merged from several channels,
  /// reused across calls.
  // no-snapshot(already delivered to the caller)
  std::vector<DramCompletion> merged_;
  RequestId next_id_ = 0;
  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
};

/// How far each round of drain_regions() drains the two regions.
enum class Drain : std::uint8_t {
  Through,     ///< issue what is due by `now`; `now` stays put
  Completely,  ///< issue everything queued; `now` moves to the last finish
};

/// Why drain_regions() returned.
enum class DrainEnd : std::uint8_t {
  Quiet,        ///< a round delivered no completion
  Stopped,      ///< the caller's stop condition held
  OutOfRounds,  ///< `max_rounds` rounds ran, each delivering something
};

/// The stop condition of a caller that has none.
struct NeverStop {
  constexpr bool operator()() const noexcept { return false; }
};

/// The one drain loop over the two regions. Each round drains `on` and
/// `off` as `how` says, then hands every completion to
/// `deliver(completion, region)`: on-package first, then off-package,
/// each in take_completions() order. A delivery may submit work (the next
/// copy chunk) to either region; both spans stay valid across submit()
/// until the next take_completions(). Rounds repeat until one delivers
/// nothing, `stop()` holds, or `max_rounds` rounds have run. `stop()` is
/// asked before every round, so it also sees the state each round leaves.
template <class Deliver, class Stop = NeverStop>
DrainEnd drain_regions(DramSystem& on, DramSystem& off, Drain how, Cycle& now,
                       unsigned max_rounds, Deliver&& deliver,
                       Stop&& stop = {}) {
  for (unsigned round = 0;; ++round) {
    if (stop()) return DrainEnd::Stopped;
    if (round == max_rounds) return DrainEnd::OutOfRounds;
    if (how == Drain::Through) {
      on.drain_until(now);
      off.drain_until(now);
    } else {
      now = std::max({now, on.drain_all(now), off.drain_all(now)});
    }
    const auto a = on.take_completions();
    const auto b = off.take_completions();
    for (const DramCompletion& c : a) deliver(c, Region::OnPackage);
    for (const DramCompletion& c : b) deliver(c, Region::OffPackage);
    if (a.empty() && b.empty()) return DrainEnd::Quiet;
  }
}

}  // namespace hmm
