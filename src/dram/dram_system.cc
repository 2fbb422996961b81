#include "dram/dram_system.hh"

#include <algorithm>

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
  channels_.reserve(channels);
  for (unsigned i = 0; i < channels; ++i)
    channels_.emplace_back(timing, mapping_, policy);
}

unsigned DramSystem::channel_of(MachAddr addr) const noexcept {
  return mapping_.decode(addr).channel;
}

RequestId DramSystem::submit(MachAddr addr, std::uint32_t bytes,
                             AccessType type, Priority priority,
                             Cycle arrival, int channel_hint) {
  return submit(DramRequest{.addr = addr,
                            .bytes = bytes,
                            .type = type,
                            .priority = priority,
                            .arrival = arrival,
                            .issued = arrival},
                channel_hint);
}

RequestId DramSystem::submit(DramRequest req, int channel_hint) {
  if (injector_ != nullptr &&
      injector_->fires(fault::FaultSite::ChannelStall, req.addr))
    req.arrival += kFaultStallCycles;
  req.id = next_id_++;  // system-wide unique id
  DramChannel& c = channels_[channel_hint >= 0
                                 ? static_cast<unsigned>(channel_hint) %
                                       num_channels()
                                 : channel_of(req.addr)];
  const RequestId id = c.submit(req);
  due_ = std::min(due_, c.next_decision());
  return id;
}

void DramSystem::refresh_due() noexcept {
  due_ = kNeverCycle;
  for (const auto& c : channels_) due_ = std::min(due_, c.next_decision());
}

void DramSystem::drain_until(Cycle now) {
  if (due_ > now) return;
  for (auto& c : channels_) c.drain_until(now);
  refresh_due();
}

Cycle DramSystem::drain_all(Cycle upto) {
  Cycle last = upto;
  for (auto& c : channels_) last = std::max(last, c.drain_all(upto));
  refresh_due();
  return last;
}

std::span<const DramCompletion> DramSystem::take_completions() {
  merged_.clear();
  for (auto& c : channels_) {
    const auto done = c.take_completions();
    merged_.insert(merged_.end(), done.begin(), done.end());
  }
  return merged_;
}

std::size_t DramSystem::backlog() const noexcept {
  std::size_t n = 0;
  for (const auto& c : channels_) n += c.backlog();
  return n;
}

std::size_t DramSystem::demand_backlog() const noexcept {
  std::size_t n = 0;
  for (const auto& c : channels_) n += c.demand_backlog();
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
  refresh_due();
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
