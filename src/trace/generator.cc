#include "trace/generator.hh"

namespace hmm {

SyntheticWorkload::SyntheticWorkload(Params p,
                                     std::vector<MixtureComponent> components)
    : p_(std::move(p)),
      comps_(std::move(components)),
      gap_(p_.mean_gap_cycles),
      rng_(p_.seed) {
  HMM_CHECK(!comps_.empty(),
            "a synthetic workload needs at least one mixture component");
  double total = 0.0;
  for (const auto& c : comps_) {
    total += c.weight;
    cum_weight_.push_back(total);
  }
  for (auto& w : cum_weight_) w /= total;
}

TraceRecord SyntheticWorkload::next() {
  // Phase boundaries drive hot-set drift / stride changes.
  if (p_.phase_length != 0 && emitted_ != 0 &&
      emitted_ % p_.phase_length == 0) {
    for (auto& c : comps_) c.pattern->on_phase(rng_);
  }

  const double u = rng_.uniform();
  std::size_t i = 0;
  while (i + 1 < cum_weight_.size() && u > cum_weight_[i]) ++i;
  MixtureComponent& c = comps_[i];

  TraceRecord r;
  r.addr = c.pattern->next(rng_);
  r.timestamp = now_;
  r.type = rng_.chance(p_.read_fraction) ? AccessType::Read
                                         : AccessType::Write;
  if (c.cpu >= 0) {
    r.cpu = static_cast<CpuId>(c.cpu);
  } else {
    r.cpu = static_cast<CpuId>(rr_cpu_);
    rr_cpu_ = (rr_cpu_ + 1) % p_.cpus;
  }

  now_ += gap_(rng_);
  ++emitted_;
  return r;
}

void SyntheticWorkload::save(snap::Writer& w) const {
  const_cast<SyntheticWorkload*>(this)->io(w);
}

void SyntheticWorkload::restore(snap::Reader& r) { io(r); }

template <class Ar>
void SyntheticWorkload::io(Ar& ar) {
  snap::section(ar, snap::tag('W', 'K', 'L', 'D'), [&] {
    snap::rng(ar, rng_);
    snap::u64(ar, now_);
    snap::u64(ar, emitted_);
    snap::u32(ar, rr_cpu_);
    snap::expect<std::uint64_t>(ar, comps_.size(), "workload mixture size");
    for (MixtureComponent& c : comps_)
      for (std::uint64_t* word : c.pattern->cursors()) snap::u64(ar, *word);
  });
}

}  // namespace hmm
