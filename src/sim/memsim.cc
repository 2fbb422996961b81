#include "sim/memsim.hh"

#include <algorithm>

#include "schemes/registry.hh"

namespace hmm {

MemSim::MemSim(const MemSimConfig& cfg)
    : cfg_(cfg),
      on_(DramSystem::make(Region::OnPackage)),
      off_(DramSystem::make(Region::OffPackage)),
      scheme_(schemes::make_scheme(cfg.scheme, cfg.controller,
                                   cfg.cache_fraction, on_, off_)),
      injector_(cfg.fault),
      auditor_(scheme_.get(), cfg.audit_interval),
      // analyze: allow(determinism): watchdog clock, never simulated state
      started_(std::chrono::steady_clock::now()) {
  if (injector_.enabled()) {
    scheme_->set_fault_injector(&injector_);
    on_.set_fault_injector(&injector_);
    off_.set_fault_injector(&injector_);
  }
  if (cfg.ras.enabled) {
    ras_ = std::make_unique<ras::RasEngine>(
        cfg.ras, cfg.controller.geom,
        injector_.enabled() ? &injector_ : nullptr);
    scheme_->set_ras(ras_.get());
    auditor_.set_extra_check(
        [this] { return ras_route_sweep(auditor_.window()); });
  }
}

std::string MemSim::ras_route_sweep(const fault::AuditWindow& window) const {
  // Every OS-visible page must translate to a live frame right now —
  // retired frames are blacklisted and must never serve demand. Ω and
  // the identity pages of the boot-reserved spares are not OS-visible.
  const Geometry& g = cfg_.controller.geom;
  const PageId first_reserved = g.omega() - cfg_.ras.spare_frames;
  const auto routes_to_retired = [&](PageId p) {
    const Route r = scheme_->translate(g.machine_base(p));
    const PageId frame = g.page_of(r.mach);
    return ras_->retired(frame)
               ? "RAS sweep: page " + std::to_string(p) +
                     " routes to retired frame " + std::to_string(frame)
               : std::string();
  };
  const auto [first, end] = window.slice(first_reserved);
  for (PageId p = first; p < end; ++p) {
    std::string err = routes_to_retired(p);
    if (!err.empty()) return err;
  }
  // The page a retired frame most likely still serves is its identity
  // page, so those are checked on every audit.
  for (const PageId f : ras_->retired_frames()) {
    if (f >= first_reserved) continue;
    std::string err = routes_to_retired(f);
    if (!err.empty()) return err;
  }
  return {};
}

void MemSim::check_deadline() const {
  if (cfg_.max_wall_seconds <= 0) return;
  // analyze: allow(determinism): watchdog clock, never simulated state
  const auto now_wall = std::chrono::steady_clock::now();
  const std::chrono::duration<double> elapsed = now_wall - started_;
  if (elapsed.count() > cfg_.max_wall_seconds)
    throw fault::SimError(
        fault::SimErrorKind::Timeout,
        "simulation exceeded its wall-clock budget of " +
            std::to_string(cfg_.max_wall_seconds) + "s");
}

void MemSim::check_wedged() const {
  if (scheme_->background_idle()) return;
  if (scheme_->in_flight_chunks() != 0) return;
  if (on_.backlog() != 0 || off_.backlog() != 0) return;
  // No copy chunk in flight, both regions drained, yet the swap is not
  // finished: no future event can ever advance it.
  throw fault::SimError(
      fault::SimErrorKind::Watchdog,
      std::string("migration engine wedged mid-swap (design ") +
          scheme_->name() + "): simulated time cannot advance");
}

void MemSim::handle_completion(const DramCompletion& c, Region region) {
  if (c.priority == Priority::Background) {
    scheme_->on_background_completion(c, region);
    return;
  }
  const DramSystem& sys = region == Region::OnPackage ? on_ : off_;
  // c.finish already includes the extra pre-issue latency (translation,
  // OS stalls, design-N blocking) because the request's arrival was
  // shifted by it; only the fixed wire ledger is added here.
  const double lat =
      static_cast<double>(c.finish - c.issued + sys.wire_overhead());
  latency_.add(lat);
  latency_hist_.add(static_cast<std::uint64_t>(lat));
  (c.type == AccessType::Read ? read_latency_ : write_latency_).add(lat);
  (region == Region::OnPackage ? on_latency_ : off_latency_).add(lat);
}

void MemSim::pump(Cycle now) {
  // Background completions can trigger further submissions with arrivals
  // <= now, so iterate to a fixed point.
  drain_regions(
      on_, off_, Drain::Through, now, 1000,
      [this](const DramCompletion& c, Region r) { handle_completion(c, r); });
}

Cycle MemSim::force_migration_idle(Cycle now) {
  const DrainEnd end = drain_regions(
      on_, off_, Drain::Completely, now, 1'000'000,
      [this](const DramCompletion& c, Region r) { handle_completion(c, r); },
      [this] { return scheme_->background_idle(); });
  // Nothing completed though the engine is still busy: either a wedge
  // (watchdog throws) or an external event must advance it.
  if (end == DrainEnd::Quiet) check_wedged();
  if (end == DrainEnd::OutOfRounds)
    throw fault::SimError(fault::SimErrorKind::Watchdog,
                          "swap did not finish within the event budget");
  return now;
}

void MemSim::throttle(DramSystem& sys, Cycle& now) {
  int guard = 0;
  while (sys.demand_backlog() >= cfg_.max_demand_backlog &&
         ++guard < 1'000'000) {
    // Finite request queues: slip time forward until the region drains.
    const Cycle step = 200;
    slip_ += step;
    now += step;
    pump(now);
  }
  if (sys.demand_backlog() >= cfg_.max_demand_backlog)
    throw fault::SimError(fault::SimErrorKind::Watchdog,
                          "demand backlog refuses to drain");
}

void MemSim::step(const TraceRecord& r) {
  Cycle now = std::max(r.timestamp + slip_, last_now_);
  pump(now);

  // The TableBitFlip site only exists for schemes that carry a
  // translation table; cache-style schemes expose HotnessCorrupt instead.
  if (injector_.enabled() && scheme_->mutable_table() != nullptr &&
      injector_.fires(fault::FaultSite::TableBitFlip)) {
    // A transient flips a bit in the translation hardware; the periodic
    // audit must detect the resulting encoding/placement disagreement.
    TranslationTable& t = *scheme_->mutable_table();
    const auto row = static_cast<SlotId>(
        injector_.payload_rng().bounded64(t.geometry().slots()));
    if (injector_.payload_rng().chance(0.5))
      t.flip_pending_bit(row);
    else
      t.flip_occupant_bit(row, injector_.payload_rng().bounded(32));
  }

  // Latency is charged from the moment the access was made, so a design-N
  // blocking swap shows up in the average memory access time (Fig 11).
  const Cycle issue_time = now;

  schemes::SchemeDecision d = scheme_->on_access(r.addr, r.type, now);

  if (d.stall_until_idle) {
    // Design N halts execution for the whole swap: every access arriving
    // before the swap completes waits until it does.
    blocked_until_ = std::max(blocked_until_, force_migration_idle(now));
    // The swap completed while we waited: route with the updated table.
    d.route = scheme_->translate(r.addr);
  }
  if (blocked_until_ > now) {
    d.extra_latency += blocked_until_ - now;
  }

  // Reference-mode overrides (Fig 11's all-on / all-off guide lines).
  Region region = d.route.region;
  MachAddr mach = d.route.mach;
  if (cfg_.force == MemSimConfig::Force::AllOffPackage) {
    region = Region::OffPackage;
    mach = r.addr;
    d.extra_latency = 0;
  } else if (cfg_.force == MemSimConfig::Force::AllOnPackage) {
    region = Region::OnPackage;
    mach = r.addr;
    d.extra_latency = 0;
  }

  if (ras_ != nullptr) {
    // Media-error model: probe the frame actually served (ECC penalties
    // land in extra_latency), and hard-stop if the scheme ever routed a
    // demand access into a blacklisted frame. Force modes bypass the
    // scheme's routing, so the retired check is meaningless there.
    const PageId frame = cfg_.controller.geom.page_of(mach);
    if (cfg_.force == MemSimConfig::Force::None && ras_->retired(frame))
      throw fault::SimError(
          fault::SimErrorKind::AuditFailed,
          "demand access served from retired frame " +
              std::to_string(frame));
    d.extra_latency += ras_->on_demand_access(frame, now);
  }

  DramSystem& sys = region == Region::OnPackage ? on_ : off_;
  throttle(sys, now);

  sys.submit({.addr = mach,
              .type = r.type,
              .arrival = now + d.extra_latency,
              .issued = issue_time});
  last_now_ = now;
  auditor_.on_access();
}

void MemSim::run(SyntheticWorkload& workload, std::uint64_t n) {
  run_chunk(workload, n);
  finish();
}

void MemSim::run_chunk(SyntheticWorkload& workload, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    step(workload.next());
    if ((++deadline_check_ & 1023u) == 0) check_deadline();
  }
}

void MemSim::finish() {
  // Drain demand, then let any in-flight migration complete. Note: this
  // advances only end_time_, never last_now_ — arrival pacing must keep
  // following trace timestamps, or everything after a mid-trace drain
  // would arrive in one burst and saturate the queues artificially.
  Cycle end = std::max(last_now_, end_time_);
  drain_regions(
      on_, off_, Drain::Completely, end, 1'000'000,
      [this](const DramCompletion& c, Region r) { handle_completion(c, r); });
  end_time_ = end;
  // Everything drained: a swap the engine still holds can never complete.
  check_wedged();
  // The periodic audits roll over the whole-state checks; one full sweep
  // here leaves no corruption unreported past the end of the run.
  if (cfg_.audit_interval != 0) auditor_.full_audit();
}

void MemSim::reset_stats() {
  // In-flight requests stay in flight; their completions land in the new
  // measurement window with correct latencies.
  on_.reset_stats();
  off_.reset_stats();
  latency_.reset();
  read_latency_.reset();
  write_latency_.reset();
  on_latency_.reset();
  off_latency_.reset();
  latency_hist_.reset();
}

RunResult MemSim::result() const {
  RunResult r;
  const schemes::SchemeMetrics m = scheme_->metrics();
  r.accesses = latency_.count();
  r.avg_latency = latency_.mean();
  r.avg_read_latency = read_latency_.mean();
  r.avg_write_latency = write_latency_.mean();
  r.avg_on_latency = on_latency_.mean();
  r.avg_off_latency = off_latency_.mean();
  r.p99_latency = static_cast<double>(latency_hist_.quantile(0.99));
  r.on_package_fraction = m.on_package_fraction;
  r.off_row_hit_rate = off_.row_hit_rate();
  r.on_queue_delay = on_.mean_queue_delay();
  r.off_queue_delay = off_.mean_queue_delay();
  r.swaps = m.swaps;
  r.migrated_bytes = m.migrated_bytes;
  r.demand_bytes_on = on_.demand_bytes();
  r.demand_bytes_off = off_.demand_bytes();
  r.os_stall_cycles = m.os_stall_cycles;
  r.end_time = std::max(end_time_, last_now_);

  r.faults_injected = injector_.total_fires();
  r.faults_dropped = injector_.events_dropped();
  r.chunk_retries = m.chunk_retries;
  r.chunks_dropped = m.chunks_dropped;
  r.swap_aborts = m.swap_aborts;
  r.audits = auditor_.audits();
  r.degraded = m.degraded;
  r.degraded_at = m.degraded_at;
  const auto& events = injector_.events();
  r.fault_events.assign(
      events.begin(),
      events.begin() +
          std::min(events.size(), RunResult::kMaxReportedFaults));

  if (ras_ != nullptr) {
    r.ras_enabled = true;
    r.ras = ras_->metrics();
    r.ras_frames_pending = ras_->pending_count();
    r.ras_spares_left = ras_->spares_left();
    r.ras_healthy_frames = ras_->healthy_frames();
    r.ras_retirements = ras_->retirement_log();
  }

  const EnergyBreakdown e = EnergyModel::hybrid(
      on_.demand_bytes(), off_.demand_bytes(), on_.background_bytes(),
      off_.background_bytes());
  r.energy_pj = e.total_pj();
  r.energy_off_only_pj =
      EnergyModel::off_only_pj(on_.demand_bytes() + off_.demand_bytes());
  return r;
}

void MemSim::save(snap::Writer& w) const { const_cast<MemSim*>(this)->io(w); }

void MemSim::restore(snap::Reader& r) {
  io(r);
  // analyze: allow(determinism): watchdog clock, never simulated state
  started_ = std::chrono::steady_clock::now();
}

template <class Ar>
void MemSim::io(Ar& ar) {
  snap::part(ar, on_);
  snap::part(ar, off_);
  snap::part(ar, *scheme_);
  snap::part(ar, injector_);
  snap::part(ar, auditor_);
  if (ras_ != nullptr) snap::part(ar, *ras_);
  snap::section(ar, snap::tag('M', 'S', 'I', 'M'), [&] {
    snap::u64(ar, deadline_check_);
    snap::u64(ar, slip_);
    snap::u64(ar, last_now_);
    snap::u64(ar, end_time_);
    snap::u64(ar, blocked_until_);
    snap::stat(ar, latency_);
    snap::stat(ar, read_latency_);
    snap::stat(ar, write_latency_);
    snap::stat(ar, on_latency_);
    snap::stat(ar, off_latency_);
    snap::hist(ar, latency_hist_);
  });
}

}  // namespace hmm
