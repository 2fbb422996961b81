// One DRAM channel: per-bank state machines, a shared data bus, and a
// FR-FCFS transaction scheduler with open-page row-buffer policy.
//
// The model is transaction-level: each request is scheduled atomically
// (PRE/ACT/CAS collapsed into start/finish times that respect tRP/tRCD/
// tCAS/tRAS/tRTP/tWR/tCCD and data-bus occupancy). This reproduces the two
// effects the paper depends on — queueing delay that grows with bank
// conflicts (8-bank DIMM vs 128-bank SiP DRAM) and open-row locality —
// without simulating individual command slots.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/snapshot.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/address_mapping.hh"
#include "dram/request.hh"
#include "dram/timing.hh"

namespace hmm {

/// Scheduling policy selector (FR-FCFS is the paper's assumption [11];
/// plain FCFS is kept as an ablation baseline).
enum class SchedulerPolicy : std::uint8_t { FrFcfs, Fcfs };

class DramChannel {
 public:
  DramChannel(const DramTiming& timing, const AddressMapping& mapping,
              SchedulerPolicy policy = SchedulerPolicy::FrFcfs);

  /// Queue a request. Completion is reported via take_completions().
  /// Coordinates are decoded with the channel's mapping; the caller must
  /// have routed the request to the right channel already.
  RequestId submit(const DramRequest& req);
  /// Same, with the coordinates the caller already decoded from req.addr.
  RequestId submit(const DramRequest& req, const DramCoordinates& coord) {
    Queued q{req, coord};
    if (q.req.id == kInvalidRequest) q.req.id = next_id_++;
    if (q.req.priority == Priority::Demand) ++demand_queued_;
    earliest_ = std::min(earliest_, q.req.arrival);
    queue_.push_back(q);
    return q.req.id;
  }

  /// Issue every request whose scheduling decision falls at or before `now`.
  void drain_until(Cycle now);

  /// Issue everything still queued; returns the finish time of the last
  /// request (or `upto` if the queue was empty).
  Cycle drain_all(Cycle upto);

  /// Completions accumulated since the last call (in issue order). The
  /// view is over a buffer the channel reuses: it stays valid, across
  /// submit() too, until the next take_completions().
  [[nodiscard]] std::span<const DramCompletion> take_completions() {
    taken_.swap(completions_);
    completions_.clear();
    return taken_;
  }
  /// True when take_completions() would return something.
  [[nodiscard]] bool has_completions() const noexcept {
    return !completions_.empty();
  }
  /// Finish time of the last request issued (0 before the first).
  [[nodiscard]] Cycle last_finish() const noexcept { return last_finish_; }

  /// First cycle at which drain_until() would issue anything; kNeverCycle
  /// while the queue is empty.
  [[nodiscard]] Cycle next_decision() const noexcept {
    return std::max(earliest_, clock_);
  }

  [[nodiscard]] std::size_t backlog() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t demand_backlog() const noexcept {
    return demand_queued_;
  }

  // --- statistics (demand traffic only unless noted) -----------------------
  [[nodiscard]] const RunningStat& queue_delay() const noexcept {
    return queue_delay_;
  }
  [[nodiscard]] const RunningStat& service_time() const noexcept {
    return service_time_;
  }
  [[nodiscard]] std::uint64_t row_hits() const noexcept { return row_hits_; }
  [[nodiscard]] std::uint64_t row_misses() const noexcept {
    return row_misses_;
  }
  [[nodiscard]] std::uint64_t demand_bytes() const noexcept {
    return demand_bytes_;
  }
  [[nodiscard]] std::uint64_t background_bytes() const noexcept {
    return background_bytes_;
  }
  [[nodiscard]] std::uint64_t busy_cycles() const noexcept {
    return busy_cycles_;
  }
  void reset_stats();

  /// Checkpoint/restore of all timing state: banks, queue (with decoded
  /// coordinates), bus reservations, clocks, pending completions, stats.
  /// Nothing is quiesced — in-flight work resumes exactly where it was.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  template <class Ar>
  void io(Ar& ar);

  struct Bank {
    bool open = false;
    std::uint64_t open_row = 0;
    Cycle ready_for_cas = 0;  ///< earliest next CAS to the open row
    Cycle ready_for_pre = 0;  ///< earliest next PRE
    Cycle act_time = 0;       ///< when the current row was activated
  };

  struct Queued {
    DramRequest req;
    DramCoordinates coord;
  };

  /// Earliest bank-side CAS time if this request were issued at t.
  [[nodiscard]] Cycle bank_ready_estimate(const Queued& q,
                                          Cycle t) const noexcept;

  /// Pick the next request per policy among entries with arrival <= t.
  /// Returns queue index or npos.
  [[nodiscard]] std::size_t pick(Cycle t) const noexcept;

  /// Issue queue entry i with decision time t; records the completion.
  void issue(std::size_t i, Cycle t);

  /// One scheduling step bounded by `limit`; returns false when nothing
  /// can be issued at or before `limit`.
  bool step(Cycle limit);

  /// Recompute earliest_ from the queue.
  void refresh_earliest() noexcept;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Max time a request may be bypassed by younger row hits (~4 x tRC).
  static constexpr Cycle kStarvationLimit = 640;

  DramTiming timing_;      // no-snapshot(construction-time config)
  AddressMapping mapping_;  // no-snapshot(construction-time config)
  SchedulerPolicy policy_;  // no-snapshot(construction-time config)
  std::vector<Bank> banks_;
  /// Reserve `span` cycles of data bus no earlier than `earliest`; the bus
  /// is a gap-aware schedule (data slots are assigned out of issue order),
  /// so a transfer booked far in the future never blocks near-term ones.
  Cycle reserve_bus(Cycle earliest, Cycle span);

  std::vector<Queued> queue_;
  /// Minimum arrival in queue_, kNeverCycle when it is empty.
  // no-snapshot(derived from queue_; recomputed on restore)
  Cycle earliest_ = kNeverCycle;
  std::size_t demand_queued_ = 0;
  /// Disjoint busy intervals [start, end), sorted, from bus_head_ on;
  /// pruned below clock_ by moving the head, so pruning moves nothing.
  std::vector<std::pair<Cycle, Cycle>> bus_busy_;
  /// First live entry of bus_busy_; 0 after a restore.
  // no-snapshot(only the live entries from the head on are serialized)
  std::size_t bus_head_ = 0;
  Cycle clock_ = 0;  ///< next command-bus decision slot
  Cycle last_finish_ = 0;
  RequestId next_id_ = 0;
  std::vector<DramCompletion> completions_;
  /// What the last take_completions() handed out; swapped with
  /// completions_, so neither reallocates in steady state.
  // no-snapshot(already delivered to the caller)
  std::vector<DramCompletion> taken_;

  RunningStat queue_delay_;
  RunningStat service_time_;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
  std::uint64_t demand_bytes_ = 0;
  std::uint64_t background_bytes_ = 0;
  std::uint64_t busy_cycles_ = 0;
};

}  // namespace hmm
