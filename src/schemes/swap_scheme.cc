#include "schemes/swap_scheme.hh"

#include <algorithm>

#include "common/params.hh"

namespace hmm::schemes {

SwapScheme::SwapScheme(MigrationDesign design, const ControllerConfig& cfg,
                       DramSystem& on_package, DramSystem& off_package)
    : cfg_(cfg),
      table_(cfg_.geom, table_mode(design)),
      engine_(table_, on_package, off_package, design),
      slot_tracker_(cfg_.geom.slots()),
      mq_(params::kMultiQueueLevels, params::kMultiQueueEntriesPerLevel) {}

SchemeDecision SwapScheme::on_access(PhysAddr addr, AccessType type,
                                     Cycle now) {
  SchemeDecision d;
  d.route = table_.translate(addr);
  d.extra_latency = params::kTranslationTableLatency;
  ++stats_.accesses;

  const Geometry& g = cfg_.geom;
  const PageId p = g.page_of(addr);
  const std::uint32_t sb = g.sub_block_of(g.offset_of(addr));

  if (type == AccessType::Write && table_.shadow_active() &&
      p == table_.shadow_page()) {
    // Demand write to the page under transaction: the write lands at the
    // committed home (which keeps serving), so whatever shadow copy of
    // this sub-block exists in the hole is now stale.
    table_.shadow_mark_dirty(sb);
  }

  if (d.route.region == Region::OnPackage) {
    ++stats_.on_package_hits;
    if (d.route.served_by_fill_slot) ++stats_.fill_forwards;
    const auto slot = static_cast<SlotId>(d.route.mach >> g.page_shift());
    slot_tracker_.record_access(slot);
  } else {
    ++stats_.off_package_hits;
    if (cfg_.migration_enabled) {
      PageId tracked = p;
      if (injector_ != nullptr &&
          injector_->fires(fault::FaultSite::HotnessCorrupt, p)) {
        // A corrupted hotness counter credits the access to the wrong
        // page. This must stay benign: at worst a suboptimal swap, which
        // can_swap() then screens for validity.
        tracked = static_cast<PageId>(
            injector_->payload_rng().bounded64(g.total_pages()));
      }
      if (cfg_.oracle_hotness)
        oracle_.record_access(tracked, sb);
      else
        mq_.record_access(tracked, sb);
    }
  }

  // RAS retirement runs ahead of the migration trigger so the design-N
  // blocking check below also stalls demand behind an evacuation copy.
  if (ras_ != nullptr) ras_service(now);

  if (cfg_.migration_enabled) {
    if (++since_epoch_ >= cfg_.swap_interval) {
      since_epoch_ = 0;
      if (engine_.design() == MigrationDesign::Nomad)
        consider_migration(now);
      else
        consider_swap(now);
    }
    // The basic N design halts execution during a swap (Section III-A);
    // the check runs after the trigger so a just-started swap also blocks.
    if (engine_.design() == MigrationDesign::N && !engine_.idle())
      d.stall_until_idle = true;
    // OS-assisted bookkeeping stalls the CPU; charge it to the access that
    // crossed the epoch boundary.
    d.extra_latency += pending_os_stall_;
    pending_os_stall_ = 0;
  }
  return d;
}

void SwapScheme::retire_data_free(PageId frame, Cycle now) {
  if (table_.mode() != TableMode::Shadow || table_.hole() != frame) {
    ras_->complete_retirement(frame, now);
    return;
  }
  // The nomad hole must move off the failing frame first. Pool dry: it is
  // pinned where it is. can_migrate() screens the quarantined hole, so
  // nomad stops migrating — degraded but alive.
  const PageId spare = ras_->peek_spare();
  if (spare == kInvalidPage) {
    ras_->pin_frame(frame);
    return;
  }
  table_.relocate_hole(spare);
  ras_->consume_spare(spare);
  ras_->complete_retirement(frame, now);
}

void SwapScheme::ras_service(Cycle now) {
  // 1. Close out the in-flight evacuation once the engine drains.
  if (evac_frame_ != kInvalidPage && engine_.idle()) {
    const PageId f = evac_frame_;
    evac_frame_ = kInvalidPage;
    // Data-free now (a nomad evacuee's home became the hole); otherwise
    // the evacuation aborted, the frame is still pending, and step 3
    // retries (bounded — repeated aborts degrade the engine, and
    // can_evacuate() then fails, which pins the frame).
    if (table_.page_at(f) == kInvalidPage) retire_data_free(f, now);
  }

  // 2. Preempt and retarget. An ordinary hotness swap in flight blocks
  // the engine — and under a busy workload swaps run back to back, so
  // waiting for a natural idle window could starve the retirement
  // forever. Reliability preempts performance: abort the swap. An
  // in-flight *evacuation* is only aborted when a newly failing frame is
  // part of its plan — a swap must never commit into a failing frame.
  if (!engine_.idle() && ras_->has_pending() &&
      (evac_frame_ == kInvalidPage || engine_.plan_touches([&](PageId f) {
        return f != evac_frame_ && ras_->pending(f);
      })))
    engine_.abort_current(now);

  // 3. Launch the next retirement.
  if (!engine_.idle() || !ras_->has_pending()) return;
  const PageId f = ras_->next_pending();
  if (table_.page_at(f) == kInvalidPage) {
    // Data-free already (a hole, an empty N-1 slot, a stale frame).
    retire_data_free(f, now);
    return;
  }
  if (engine_.can_evacuate(f)) {
    PageId spare = kInvalidPage;
    if (engine_.design() == MigrationDesign::N) {
      spare = ras_->peek_spare();
      if (spare == kInvalidPage) {
        ras_->pin_frame(f);  // design N evacuates only onto a spare
        return;
      }
    }
    if (engine_.start_evacuation(f, spare, now)) {
      if (spare != kInvalidPage) ras_->consume_spare(spare);
      evac_frame_ = f;
      return;
    }
  }
  ras_->pin_frame(f);
}

bool SwapScheme::hotter_than(const MultiQueueTracker::Hottest& hot,
                             std::uint64_t cold_count) const noexcept {
  const std::uint64_t hot_rate =
      cfg_.oracle_hotness ? hot.epoch_count : hot.epoch_count / 2;
  return std::max<std::uint64_t>(hot_rate, 1) > cold_count;
}

void SwapScheme::forget(PageId page) noexcept {
  if (cfg_.oracle_hotness)
    oracle_.erase(page);
  else
    mq_.erase(page);
}

void SwapScheme::charge_os_updates(Cycle updates) {
  // Every table update is an OS routine invocation (Section III-B).
  if (!cfg_.is_os_assisted()) return;
  const Cycle stall = updates * params::kOsUpdateOverhead;
  stats_.os_stall_cycles += stall;
  pending_os_stall_ += stall;
}

void SwapScheme::reset_epoch() {
  slot_tracker_.reset_epoch();
  if (cfg_.oracle_hotness)
    oracle_.reset_epoch();
  else
    mq_.reset_epoch();
}

void SwapScheme::consider_swap(Cycle now) {
  // One swap per epoch in normal operation (the engine is busy for the
  // rest of the epoch anyway); during instant-migration warm-up the chain
  // is allowed to run deeper so placement converges within a scaled trace.
  const int max_swaps = engine_.instant() ? 64 : 1;

  for (int k = 0; k < max_swaps; ++k) {
    const MultiQueueTracker::Hottest hot = hottest();
    if (!hot.found) break;

    ++stats_.swap_attempts;
    // Find the coldest migratable on-package slot. A hot page the engine
    // refuses whatever the slot (busy, degraded, wedged, or the page is
    // already on-package) skips the sweep: no slot would pass, so it
    // would clear no reference bit and bring the hand back where it was.
    SlotClockTracker::Victim cold;
    if (engine_.can_swap_hot(hot.page)) {
      auto migratable = [&](SlotId s) {
        return engine_.can_swap(hot.page, s);
      };
      cold = slot_tracker_.pick_victim(migratable);
    }

    if (cold.found && hotter_than(hot, cold.epoch_count) &&
        engine_.start_swap(hot.page, hot.last_sub_block, cold.slot, now)) {
      forget(hot.page);
      charge_os_updates(engine_.design() == MigrationDesign::N ? 1 : 5);
    } else {
      ++stats_.swaps_rejected;
      break;
    }
  }
  reset_epoch();
}

void SwapScheme::consider_migration(Cycle now) {
  // Nomad moves one page per transaction, alternating with the hole: an
  // on-package hole invites a promotion (and leaves the promoted page's
  // old home as an off-package hole); an off-package hole invites a
  // demotion under the hottest-coldest rule (and re-opens an on-package
  // hole). Instant warm-up chains deeper, like consider_swap().
  const int max_moves = engine_.instant() ? 64 : 1;
  const Geometry& g = cfg_.geom;

  for (int k = 0; k < max_moves; ++k) {
    const MultiQueueTracker::Hottest hot = hottest();
    if (!hot.found) break;
    ++stats_.swap_attempts;

    const bool hole_on_package =
        g.region_of(g.machine_base(table_.hole())) == Region::OnPackage;
    bool started = false;
    if (hole_on_package) {
      started = engine_.start_migration(hot.page, now);
      if (started) forget(hot.page);
    } else {
      auto migratable = [&](SlotId s) {
        const PageId resident = table_.page_at(s);
        return resident != kInvalidPage && engine_.can_migrate(resident);
      };
      const SlotClockTracker::Victim cold =
          slot_tracker_.pick_victim(migratable);
      if (cold.found && hotter_than(hot, cold.epoch_count))
        started = engine_.start_migration(table_.page_at(cold.slot), now);
    }
    if (!started) {
      ++stats_.swaps_rejected;
      break;
    }
    // A transaction is exactly two table updates: begin and commit.
    charge_os_updates(2);
  }
  reset_epoch();
}

SchemeMetrics SwapScheme::metrics() const {
  SchemeMetrics m;
  const MigrationEngine::Stats& es = engine_.stats();
  m.on_package_fraction =
      stats_.accesses == 0 ? 0.0
                           : static_cast<double>(stats_.on_package_hits) /
                                 static_cast<double>(stats_.accesses);
  m.swaps = es.swaps_completed;
  m.migrated_bytes = es.bytes_copied;
  m.os_stall_cycles = stats_.os_stall_cycles;
  m.chunk_retries = es.chunk_retries;
  m.chunks_dropped = es.chunks_dropped;
  m.swap_aborts = es.swaps_aborted;
  m.degraded = engine_.degraded();
  m.degraded_at = engine_.degraded_at();
  return m;
}

std::string SwapScheme::audit_check(const fault::AuditWindow&) const {
  std::string err = mq_.validate();
  if (!err.empty()) return "multi-queue tracker: " + err;
  return {};
}

void SwapScheme::save(snap::Writer& w) const {
  const_cast<SwapScheme*>(this)->io(w);
}

void SwapScheme::restore(snap::Reader& r) { io(r); }

template <class Ar>
void SwapScheme::io(Ar& ar) {
  snap::part(ar, table_);
  snap::part(ar, engine_);
  snap::part(ar, slot_tracker_);
  snap::part(ar, mq_);
  snap::part(ar, oracle_);
  snap::section(ar, snap::tag('H', 'M', 'C', 'T'), [&] {
    snap::u64(ar, stats_.accesses);
    snap::u64(ar, stats_.on_package_hits);
    snap::u64(ar, stats_.off_package_hits);
    snap::u64(ar, stats_.fill_forwards);
    snap::u64(ar, stats_.swap_attempts);
    snap::u64(ar, stats_.swaps_rejected);
    snap::u64(ar, stats_.os_stall_cycles);
    snap::u64(ar, since_epoch_);
    snap::u64(ar, pending_os_stall_);
    // evac_frame_ only moves while RAS is attached.
    if (ras_ != nullptr) snap::u64(ar, evac_frame_);
  });
}

}  // namespace hmm::schemes
