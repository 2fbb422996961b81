#include "dram/dram_system.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "fault/sim_error.hh"

namespace hmm {

DramSystem DramSystem::make(Region region, SchedulerPolicy policy) {
  if (region == Region::OnPackage) {
    return DramSystem(region, DramTiming::on_package_sip(),
                      params::kOnPackageChannels, policy);
  }
  return DramSystem(region, DramTiming::off_package_ddr3_1333(),
                    params::kOffPackageChannels, policy);
}

DramSystem::DramSystem(Region region, const DramTiming& timing,
                       unsigned channels, SchedulerPolicy policy)
    : region_(region), timing_(timing), mapping_(channels, timing) {
  HMM_CHECK(channels <= 64, "a DRAM region holds at most 64 channels");
  channels_.reserve(channels);
  for (unsigned i = 0; i < channels; ++i)
    channels_.emplace_back(timing, mapping_, policy);
}

unsigned DramSystem::channel_of(MachAddr addr) const noexcept {
  return mapping_.decode(addr).channel;
}

RequestId DramSystem::submit(DramRequest req, int channel_hint) {
  if (injector_ != nullptr &&
      injector_->fires(fault::FaultSite::ChannelStall, req.addr))
    req.arrival += kFaultStallCycles;
  req.id = next_id_++;  // system-wide unique id
  const DramCoordinates coord = mapping_.decode(req.addr);
  DramChannel& c = channels_[channel_hint >= 0
                                 ? static_cast<unsigned>(channel_hint) %
                                       num_channels()
                                 : coord.channel];
  const RequestId id = c.submit(req, coord);
  if (req.priority == Priority::Demand) ++demand_queued_;
  due_ = std::min(due_, c.next_decision());
  return id;
}

// A channel with a decision due, or with anything queued for drain_all(),
// issues at least one request, so its completed_ bit is set without
// asking it.
void DramSystem::drain_due(Cycle now) {
  due_ = kNeverCycle;
  for (unsigned i = 0; i < num_channels(); ++i) {
    DramChannel& c = channels_[i];
    if (c.next_decision() <= now) {
      const std::size_t demand = c.demand_backlog();
      c.drain_until(now);
      demand_queued_ -= demand - c.demand_backlog();
      completed_ |= std::uint64_t{1} << i;
    }
    due_ = std::min(due_, c.next_decision());
  }
}

Cycle DramSystem::drain_all(Cycle upto) {
  Cycle last = upto;
  for (unsigned i = 0; i < num_channels(); ++i) {
    DramChannel& c = channels_[i];
    if (c.backlog() != 0) {
      c.drain_all(upto);
      completed_ |= std::uint64_t{1} << i;
    }
    last = std::max(last, c.last_finish());
  }
  due_ = kNeverCycle;
  demand_queued_ = 0;
  return last;
}

std::span<const DramCompletion> DramSystem::take_completed() {
  const std::uint64_t done = std::exchange(completed_, 0);
  if (std::has_single_bit(done))
    return channels_[std::countr_zero(done)].take_completions();
  merged_.clear();
  for (std::uint64_t left = done; left != 0; left &= left - 1) {
    const auto part = channels_[std::countr_zero(left)].take_completions();
    merged_.insert(merged_.end(), part.begin(), part.end());
  }
  return merged_;
}

std::size_t DramSystem::backlog() const noexcept {
  std::size_t n = 0;
  for (const auto& c : channels_) n += c.backlog();
  return n;
}

double DramSystem::mean_queue_delay() const {
  RunningStat s;
  for (const auto& c : channels_) s.merge(c.queue_delay());
  return s.mean();
}

double DramSystem::row_hit_rate() const {
  std::uint64_t hits = 0, total = 0;
  for (const auto& c : channels_) {
    hits += c.row_hits();
    total += c.row_hits() + c.row_misses();
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

std::uint64_t DramSystem::demand_bytes() const {
  std::uint64_t n = 0;
  for (const auto& c : channels_) n += c.demand_bytes();
  return n;
}

std::uint64_t DramSystem::background_bytes() const {
  std::uint64_t n = 0;
  for (const auto& c : channels_) n += c.background_bytes();
  return n;
}

void DramSystem::reset_stats() {
  for (auto& c : channels_) c.reset_stats();
}

void DramSystem::save(snap::Writer& w) const {
  const_cast<DramSystem*>(this)->io(w);
}

void DramSystem::restore(snap::Reader& r) {
  io(r);
  due_ = kNeverCycle;
  demand_queued_ = 0;
  completed_ = 0;
  for (unsigned i = 0; i < num_channels(); ++i) {
    const DramChannel& c = channels_[i];
    due_ = std::min(due_, c.next_decision());
    demand_queued_ += c.demand_backlog();
    if (c.has_completions()) completed_ |= std::uint64_t{1} << i;
  }
}

template <class Ar>
void DramSystem::io(Ar& ar) {
  snap::section(ar, snap::tag('D', 'S', 'Y', 'S'), [&] {
    snap::expect<std::uint8_t>(ar, region_, "DRAM region");
    snap::expect<std::uint64_t>(ar, channels_.size(), "DRAM channel count");
    snap::u64(ar, next_id_);
  });
  for (DramChannel& c : channels_) snap::part(ar, c);
}

}  // namespace hmm
