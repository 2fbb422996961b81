#include "ras/ras.hh"

#include <algorithm>
#include <string>

#include "fault/sim_error.hh"

namespace hmm::ras {

namespace {
[[noreturn]] void refuse(PageId f, const char* what) {
  snap::snapshot_error("RAS state: frame " + std::to_string(f) + " " + what);
}
}  // namespace

RasEngine::RasEngine(const RasConfig& cfg, const Geometry& geom,
                     fault::FaultInjector* injector)
    : cfg_(cfg),
      geom_(geom),
      injector_(injector),
      state_(geom.total_pages(), kHealthy),
      in_state_{geom.total_pages()} {
  const PageId total = geom_.total_pages();
  HMM_CHECK(cfg_.spare_frames + 1 < total - geom_.slots(),
            "RAS spare pool must fit below omega in the off-package region");
  HMM_CHECK(cfg_.capacity_floor >= 0.0 && cfg_.capacity_floor <= 1.0,
            "RAS capacity floor must be a fraction in [0, 1]");
  floor_frames_ = static_cast<std::uint64_t>(
      cfg_.capacity_floor * static_cast<double>(total));
  for (PageId f = geom_.omega() - cfg_.spare_frames; f < geom_.omega(); ++f)
    pool_.push_back(f);
  next_scrub_at_ = cfg_.scrub_interval;
}

Cycle RasEngine::on_demand_access(PageId frame, Cycle now) {
  scrub_to(now);
  Cycle penalty = probe(frame, now, /*scrub=*/false);
  const auto it = health_.find(frame);
  if (it != health_.end() && it->second.last_scrub != 0 &&
      it->second.last_scrub + kScrubBusy > now) {
    // The patrol scrubber holds this frame busy; the demand access waits.
    penalty += it->second.last_scrub + kScrubBusy - now;
    ++metrics_.scrub_collisions;
  }
  return penalty;
}

PageId RasEngine::next_pending() const noexcept {
  if (!has_pending()) return kInvalidPage;
  return static_cast<PageId>(
      std::find(state_.begin(), state_.end(), kPending) - state_.begin());
}

void RasEngine::move(PageId frame, FrameState from, FrameState to,
                     const char* what) {
  HMM_CHECK(frame < state_.size() && state_[frame] == from, what);
  --in_state_[from];
  ++in_state_[to];
  state_[frame] = to;
}

void RasEngine::complete_retirement(PageId frame, Cycle now) {
  move(frame, kPending, kRetired,
       "complete_retirement on a frame that was not pending");
  ++metrics_.frames_retired;
  if (retire_log_.size() < kMaxRetirementLog)
    retire_log_.push_back({now, frame});
}

void RasEngine::pin_frame(PageId frame) {
  move(frame, kPending, kPinned, "pin_frame on a frame that was not pending");
  ++metrics_.frames_pinned;
}

PageId RasEngine::peek_spare() const noexcept {
  return pool_.empty() ? kInvalidPage : pool_.front();
}

void RasEngine::consume_spare(PageId frame) {
  const auto it = std::find(pool_.begin(), pool_.end(), frame);
  HMM_CHECK(it != pool_.end(), "consume_spare on a frame not in the pool");
  pool_.erase(it);
  ++metrics_.spares_used;
}

std::optional<PageId> RasEngine::remap_frame(PageId frame, Cycle now) {
  HMM_CHECK(pending(frame), "remap_frame on a frame that was not pending");
  if (pool_.empty()) return std::nullopt;
  complete_retirement(frame, now);
  return assign_spare_for(frame);
}

std::optional<PageId> RasEngine::assign_spare_for(PageId frame) {
  HMM_CHECK(retired(frame) && remap_.count(frame) == 0,
            "assign_spare_for needs a retired frame with no stand-in");
  const PageId spare = peek_spare();
  if (spare == kInvalidPage) return std::nullopt;
  consume_spare(spare);
  remap_[frame] = spare;
  ++metrics_.evacuations;
  metrics_.evacuation_bytes += geom_.page_bytes;
  return spare;
}

PageId RasEngine::resolve(PageId frame) const noexcept {
  PageId f = frame;
  for (auto it = remap_.find(f); it != remap_.end(); it = remap_.find(f))
    f = it->second;
  return f;
}

std::vector<PageId> RasEngine::retired_frames() const {
  std::vector<PageId> out;
  out.reserve(retired_count());
  for (PageId f = 0; out.size() < retired_count(); ++f)
    if (state_[f] == kRetired) out.push_back(f);
  return out;
}

std::uint64_t RasEngine::healthy_frames() const noexcept {
  return in_state_[kHealthy] + metrics_.spares_used;
}

Cycle RasEngine::probe(PageId frame, Cycle now, bool scrub) {
  if (retired(frame)) return 0;
  if (injector_ == nullptr || !injector_->enabled()) {
    if (scrub) health_[frame].last_scrub = now;
    return 0;
  }
  Cycle penalty = 0;
  FrameHealth& h = health_[frame];
  if (injector_->fires(fault::FaultSite::MediaStuckAt, frame)) {
    ++h.stuck;
    ++metrics_.stuck_faults;
  }
  bool due = false;
  bool corrected = false;
  if (injector_->fires(fault::FaultSite::MediaTransient, frame)) {
    ++h.transients;
    if (payload_draw(h, frame) < cfg_.due_fraction)
      due = true;  // double-bit: detected but uncorrectable
    else
      corrected = true;  // single-bit: ECC corrects in-line
  }
  // A stuck cell is a latent error: SEC corrects it on every probe, which
  // is exactly how the patrol scrubber surfaces it before a demand read.
  if (!due && !corrected && h.stuck > 0) corrected = true;
  if (corrected) {
    ++h.corrected;
    penalty += kCePenalty;
    ++(scrub ? metrics_.scrub_corrected : metrics_.demand_corrected);
  }
  if (due) {
    penalty += kDuePenalty;
    ++(scrub ? metrics_.scrub_uncorrectable : metrics_.demand_uncorrectable);
    flag(frame, now);
  }
  if (h.stuck >= kStuckRetireThreshold ||
      h.corrected >= cfg_.ce_retire_threshold)
    flag(frame, now);
  if (scrub) h.last_scrub = now;
  return penalty;
}

void RasEngine::scrub_to(Cycle now) {
  if (cfg_.scrub_interval == 0) return;
  const PageId total = geom_.total_pages();
  while (next_scrub_at_ <= now) {
    const Cycle at = next_scrub_at_;
    next_scrub_at_ += cfg_.scrub_interval;
    PageId f = scrub_cursor_ % total;
    for (PageId tries = 0; tries < total && retired(f); ++tries)
      f = (f + 1) % total;
    scrub_cursor_ = (f + 1) % total;
    if (retired(f)) continue;  // everything retired (degenerate)
    ++metrics_.scrub_probes;
    probe(f, at, /*scrub=*/true);
  }
}

void RasEngine::flag(PageId frame, Cycle now) {
  if (quarantined(frame)) return;
  move(frame, kHealthy, kPending, "RAS flagged a frame past the geometry");
  const auto it = std::find(pool_.begin(), pool_.end(), frame);
  if (it != pool_.end()) {
    // An unconsumed spare failed: it is data-free by construction, so it
    // retires directly — it just never gets pressed into service.
    pool_.erase(it);
    complete_retirement(frame, now);
    return;
  }
  check_capacity();
}

void RasEngine::check_capacity() const {
  const std::uint64_t healthy = healthy_frames();
  if (healthy >= floor_frames_) return;
  throw fault::SimError(
      fault::SimErrorKind::CapacityExhausted,
      "healthy capacity " + std::to_string(healthy) + "/" +
          std::to_string(geom_.total_pages()) + " frames fell below the " +
          std::to_string(floor_frames_) + "-frame retirement floor (" +
          std::to_string(retired_count()) + " retired, " +
          std::to_string(pinned_count()) + " pinned, " +
          std::to_string(pending_count()) + " pending)");
}

double RasEngine::payload_draw(FrameHealth& h, PageId frame) {
  const std::uint64_t seed =
      injector_ != nullptr ? injector_->plan().seed : 0;
  // A fresh generator per draw keeps the outcome a pure function of
  // (plan seed, frame, draw index) — independent of probe interleaving.
  Pcg32 rng(seed ^ (frame * 0x9e3779b97f4a7c15ull), h.draws + 1);
  ++h.draws;
  return rng.uniform();
}

void RasEngine::save(snap::Writer& w) const {
  const_cast<RasEngine*>(this)->io(w);
}

void RasEngine::restore(snap::Reader& r) {
  io(r);
  // A CRC-valid section can still name a frame past the geometry, or a
  // remap cycle resolve() would never leave: refuse them.
  const PageId total = geom_.total_pages();
  // analyze: allow(determinism): order-independent range check
  for (const auto& [f, h] : health_)
    if (f >= total) refuse(f, "has a health record past the geometry");
  for (const RetirementEvent& e : retire_log_)
    if (e.frame >= total) refuse(e.frame, "is logged past the geometry");
  for (const PageId f : pool_)
    if (!boot_spare(f)) refuse(f, "in the pool is not a boot-reserved spare");
  // analyze: allow(determinism): order-independent range check
  for (const auto& [f, spare] : remap_) {
    if (!retired(f)) refuse(f, "is remapped but not retired");
    if (!boot_spare(spare))
      refuse(spare, "stands in for a frame but is not a boot-reserved spare");
  }
  // Every hop lands on a distinct spare, so a chain longer than the pool
  // is a cycle.
  // analyze: allow(determinism): order-independent cycle check
  for (const auto& [start, spare] : remap_) {
    PageId f = spare;
    for (unsigned hops = 1; remap_.count(f) != 0; ++hops) {
      if (hops >= cfg_.spare_frames)
        refuse(start, "starts a remap chain longer than the spare pool");
      f = remap_.at(f);
    }
  }
}

template <class Ar>
void RasEngine::io(Ar& ar) {
  const auto frame = [&](auto& f) { snap::u64(ar, f); };
  // One state's frames, ascending: the wire form of a sorted set.
  const auto frames_in = [&](FrameState s) {
    if constexpr (snap::kSaving<Ar>) {
      ar.u64(in_state_[s]);
      for (PageId f = 0; f < state_.size(); ++f)
        if (state_[f] == s) ar.u64(f);
    } else {
      PageId prev = 0;
      for (std::uint64_t n = ar.count(), i = 0; i < n; ++i) {
        const PageId f = ar.u64();
        snap::ascending(i, prev, f);
        prev = f;
        if (f >= state_.size()) refuse(f, "is past the geometry");
        if (state_[f] != kHealthy)
          refuse(f, "is listed in two of pending, retired and pinned");
        move(f, kHealthy, s, "restored frame state");
      }
    }
  };
  if constexpr (!snap::kSaving<Ar>) {
    state_.assign(state_.size(), kHealthy);
    in_state_ = {state_.size()};
  }
  snap::section(ar, snap::tag('R', 'A', 'S', 'E'), [&] {
    snap::sorted_map(ar, health_, [&](auto& f, auto& h) {
      snap::u64(ar, f);
      snap::u64(ar, h.transients);
      snap::u64(ar, h.corrected);
      snap::u64(ar, h.stuck);
      snap::u64(ar, h.draws);
      snap::u64(ar, h.last_scrub);
    });
    frames_in(kPending);
    frames_in(kRetired);
    frames_in(kPinned);
    snap::seq(ar, pool_, frame);
    snap::sorted_map(ar, remap_, [&](auto& f, auto& spare) {
      snap::u64(ar, f);
      snap::u64(ar, spare);
    });
    snap::u64(ar, scrub_cursor_);
    snap::u64(ar, next_scrub_at_);
    snap::seq(ar, retire_log_, [&](auto& e) { retirement_io(ar, e); });
    metrics_io(ar, metrics_);
  });
}

}  // namespace hmm::ras
