#include "dram/channel.hh"

#include <algorithm>

#include "fault/sim_error.hh"

namespace hmm {

DramChannel::DramChannel(const DramTiming& timing,
                         const AddressMapping& mapping, SchedulerPolicy policy)
    : timing_(timing),
      mapping_(mapping),
      policy_(policy),
      banks_(timing.banks) {}

RequestId DramChannel::submit(const DramRequest& req) {
  return submit(req, mapping_.decode(req.addr));
}

void DramChannel::refresh_earliest() noexcept {
  earliest_ = kNeverCycle;
  for (const Queued& q : queue_) earliest_ = std::min(earliest_, q.req.arrival);
}

Cycle DramChannel::bank_ready_estimate(const Queued& q,
                                       Cycle t) const noexcept {
  const Bank& b = banks_[q.coord.bank];
  if (b.open && b.open_row == q.coord.row)
    return std::max(t, b.ready_for_cas);
  if (b.open) {
    const Cycle pre = std::max({t, b.ready_for_pre, b.act_time + timing_.tRAS});
    return pre + timing_.tRP + timing_.tRCD;
  }
  return t + timing_.tRCD;
}

std::size_t DramChannel::pick(Cycle t) const noexcept {
  // FR-FCFS: demand beats background; within a class, the request whose
  // bank can deliver data soonest goes first ("first-ready" — row hits
  // naturally win), oldest on ties. Issuing a request whose bank is still
  // busy would reserve the data bus ahead of younger, ready requests and
  // create head-of-line blocking the real scheduler does not have.
  // Starvation control: once the oldest demand request has waited past
  // kStarvationLimit, it wins regardless (real FR-FCFS caps reordering).
  std::size_t best = npos;
  bool best_demand = false;
  Cycle best_ready = 0;
  Cycle best_arrival = 0;
  std::size_t oldest_demand = npos;
  Cycle oldest_arrival = kNeverCycle;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Queued& q = queue_[i];
    if (q.req.arrival > t) continue;
    const bool demand = q.req.priority == Priority::Demand;
    if (demand && q.req.arrival < oldest_arrival) {
      oldest_arrival = q.req.arrival;
      oldest_demand = i;
    }
    const Cycle ready = policy_ == SchedulerPolicy::FrFcfs
                            ? bank_ready_estimate(q, t)
                            : q.req.arrival;
    const bool better =
        best == npos ||
        (demand != best_demand
             ? demand
             : (ready != best_ready ? ready < best_ready
                                    : q.req.arrival < best_arrival));
    if (better) {
      best = i;
      best_demand = demand;
      best_ready = ready;
      best_arrival = q.req.arrival;
    }
  }
  if (policy_ == SchedulerPolicy::FrFcfs && oldest_demand != npos &&
      t - oldest_arrival > kStarvationLimit)
    return oldest_demand;
  return best;
}

void DramChannel::issue(std::size_t i, Cycle t) {
  const Queued q = queue_[i];
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  if (q.req.priority == Priority::Demand) --demand_queued_;
  if (q.req.arrival == earliest_) refresh_earliest();

  Bank& bank = banks_[q.coord.bank];
  const bool hit = bank.open && bank.open_row == q.coord.row;
  const bool bank_was_open = bank.open;

  // Bank-side earliest CAS. Bank preparation (PRE/ACT) overlaps data-bus
  // occupancy of other banks, so bank state is advanced from the
  // bank-constrained CAS time, never from bus-induced delays — otherwise
  // bus congestion would write itself into bank timing and compound.
  Cycle cas_ready;
  if (hit) {
    cas_ready = std::max(t, bank.ready_for_cas);
  } else if (bank.open) {
    // Row conflict: precharge (respecting tRAS from activation), activate.
    const Cycle pre = std::max({t, bank.ready_for_pre,
                                bank.act_time + timing_.tRAS});
    const Cycle act = pre + timing_.tRP;
    cas_ready = act + timing_.tRCD;
    bank.act_time = act;
  } else {
    const Cycle act = t;
    cas_ready = act + timing_.tRCD;
    bank.act_time = act;
  }

  // Streaming chunk: bytes/64 back-to-back bursts on the data bus.
  const std::uint64_t bursts = std::max<std::uint64_t>(1, q.req.bytes / 64);
  const Cycle burst_span = timing_.tBurst * bursts;

  // Book the first free data-bus window at or after the bank-side data
  // time. Migration chunks are small (<= a few hundred cycles), so demand
  // waiting behind an already-booked chunk matches the burst-granularity
  // interleaving a real controller would do.
  const Cycle data_start = reserve_bus(cas_ready + timing_.tCAS, burst_span);
  const Cycle cas = data_start - timing_.tCAS;  // actual (possibly delayed)
  const Cycle finish = data_start + burst_span;

  bank.open = true;
  bank.open_row = q.coord.row;
  // All bank state anchors on the bank-side CAS time (not the bus-delayed
  // one): under transient bus congestion the bank pipeline keeps running
  // at array speed, which is what lets the backlog drain.
  const Cycle bank_data_end = cas_ready + timing_.tCAS + burst_span;
  bank.ready_for_cas = cas_ready + timing_.tCCD * bursts;
  bank.ready_for_pre =
      q.req.type == AccessType::Read
          ? std::max(bank.ready_for_pre, cas_ready + timing_.tRTP)
          : std::max(bank.ready_for_pre, bank_data_end + timing_.tWR);
  busy_cycles_ += burst_span;
  last_finish_ = std::max(last_finish_, finish);

  completions_.push_back({.id = q.req.id,
                          .issued = q.req.issued,
                          .arrival = q.req.arrival,
                          .start = cas,
                          .finish = finish,
                          .row_hit = hit,
                          .priority = q.req.priority,
                          .type = q.req.type});

  if (q.req.priority == Priority::Demand) {
    // Queueing = time before service not attributable to this request's
    // own row activation/precharge.
    const Cycle own_cost =
        hit ? 0 : (timing_.tRCD + (bank_was_open ? timing_.tRP : 0));
    const Cycle total_wait = cas - q.req.arrival;
    queue_delay_.add(
        static_cast<double>(total_wait > own_cost ? total_wait - own_cost
                                                  : 0));
    service_time_.add(static_cast<double>(finish - cas));
    hit ? ++row_hits_ : ++row_misses_;
    demand_bytes_ += q.req.bytes;
  } else {
    background_bytes_ += q.req.bytes;
  }
}

Cycle DramChannel::reserve_bus(Cycle earliest, Cycle span) {
  // Prune intervals that can no longer interact with future requests
  // (every future data time is > clock_).
  while (bus_head_ < bus_busy_.size() && bus_busy_[bus_head_].second <= clock_)
    ++bus_head_;
  // Drop the pruned prefix once it is at least as long as the live part,
  // so each entry is moved O(1) times.
  if (bus_head_ * 2 >= bus_busy_.size()) {
    bus_busy_.erase(bus_busy_.begin(),
                    bus_busy_.begin() + static_cast<std::ptrdiff_t>(bus_head_));
    bus_head_ = 0;
  }

  Cycle cur = earliest;
  std::size_t pos = bus_head_;
  for (; pos < bus_busy_.size(); ++pos) {
    const auto [s, e] = bus_busy_[pos];
    if (cur + span <= s) break;  // fits in the gap before this interval
    cur = std::max(cur, e);
  }
  bus_busy_.insert(bus_busy_.begin() + static_cast<std::ptrdiff_t>(pos),
                   {cur, cur + span});
  return cur;
}

bool DramChannel::step(Cycle limit) {
  // One scheduling decision per command-bus slot (~1 DRAM cycle). Banks
  // pipeline freely; only the command and data buses serialize, inside
  // issue(). The scheduler sees everything that has arrived by t (the
  // FR-FCFS reorder window).
  Cycle t = next_decision();
  if (queue_.empty() || t > limit) return false;
  if (queue_.size() == 1) {
    // A lone request has arrived by t (t >= earliest_ = its arrival), so
    // pick() returns it, and no later arrival exists to defer to.
    issue(0, t);
    clock_ = std::max(clock_, t) + timing_.tCmd;
    return true;
  }

  // If the best candidate's bank is stalled well beyond normal row
  // preparation and another request will arrive before that bank frees,
  // defer the decision once to that arrival: the newcomer may be ready
  // sooner and should not queue behind a bus reservation made for a
  // stalled bank.
  std::size_t i = pick(t);
  HMM_CHECK(i != npos, "scheduler picked no request from a non-empty queue");
  const Cycle ready = bank_ready_estimate(queue_[i], t);
  if (ready > t + timing_.tRP + timing_.tRCD) {
    Cycle next_arrival = kNeverCycle;
    for (const Queued& q : queue_)
      if (q.req.arrival > t)
        next_arrival = std::min(next_arrival, q.req.arrival);
    if (next_arrival < ready && next_arrival <= limit) {
      t = next_arrival;
      i = pick(t);
    }
  }
  issue(i, t);
  clock_ = std::max(clock_, t) + timing_.tCmd;
  return true;
}

void DramChannel::drain_until(Cycle now) {
  while (step(now)) {
  }
}

Cycle DramChannel::drain_all(Cycle upto) {
  while (step(kNeverCycle - 1)) {
  }
  return std::max(upto, last_finish_);
}

void DramChannel::reset_stats() {
  queue_delay_.reset();
  service_time_.reset();
  row_hits_ = row_misses_ = 0;
  demand_bytes_ = background_bytes_ = 0;
  busy_cycles_ = 0;
}

void DramChannel::save(snap::Writer& w) const {
  const_cast<DramChannel*>(this)->io(w);
}

void DramChannel::restore(snap::Reader& r) {
  io(r);
  refresh_earliest();
}

template <class Ar>
void DramChannel::io(Ar& ar) {
  snap::section(ar, snap::tag('D', 'C', 'H', 'N'), [&] {
    snap::expect<std::uint64_t>(ar, banks_.size(), "DRAM bank count");
    for (Bank& b : banks_) {
      snap::b(ar, b.open);
      snap::u64(ar, b.open_row);
      snap::u64(ar, b.ready_for_cas);
      snap::u64(ar, b.ready_for_pre);
      snap::u64(ar, b.act_time);
    }
    snap::seq(ar, queue_, [&](auto& q) {
      snap::u64(ar, q.req.addr);
      snap::u32(ar, q.req.bytes);
      snap::u8(ar, q.req.type);
      snap::u8(ar, q.req.priority);
      snap::u64(ar, q.req.arrival);
      snap::u64(ar, q.req.issued);
      snap::u64(ar, q.req.id);
      // Derived from the address, so a restore re-derives and checks them
      // rather than adopting a bank index banks_[] cannot hold.
      q.coord = mapping_.decode(q.req.addr);
      snap::expect<std::uint32_t>(ar, q.coord.channel, "DRAM queue channel");
      snap::expect<std::uint32_t>(ar, q.coord.bank, "DRAM queue bank");
      snap::expect<std::uint64_t>(ar, q.coord.row, "DRAM queue row");
      snap::expect<std::uint64_t>(ar, q.coord.column, "DRAM queue column");
    });
    snap::u64(ar, demand_queued_);
    // The live entries only: restore starts over at head 0.
    std::uint64_t busy = bus_busy_.size() - bus_head_;
    if constexpr (snap::kSaving<Ar>) {
      ar.u64(busy);
    } else {
      busy = ar.count();
      bus_busy_.assign(busy, {});
      bus_head_ = 0;
    }
    for (std::size_t i = bus_head_; i < bus_busy_.size(); ++i) {
      snap::u64(ar, bus_busy_[i].first);
      snap::u64(ar, bus_busy_[i].second);
    }
    snap::u64(ar, clock_);
    snap::u64(ar, last_finish_);
    snap::u64(ar, next_id_);
    snap::seq(ar, completions_, [&](auto& c) {
      snap::u64(ar, c.id);
      snap::u64(ar, c.issued);
      snap::u64(ar, c.arrival);
      snap::u64(ar, c.start);
      snap::u64(ar, c.finish);
      snap::b(ar, c.row_hit);
      snap::u8(ar, c.priority);
      snap::u8(ar, c.type);
    });
    snap::stat(ar, queue_delay_);
    snap::stat(ar, service_time_);
    snap::u64(ar, row_hits_);
    snap::u64(ar, row_misses_);
    snap::u64(ar, demand_bytes_);
    snap::u64(ar, background_bytes_);
    snap::u64(ar, busy_cycles_);
  });
}

}  // namespace hmm
