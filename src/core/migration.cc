#include "core/migration.hh"

#include <algorithm>
#include <string>

#include "fault/sim_error.hh"

namespace hmm {

namespace {
TableMutation set_row(SlotId row, PageId page) {
  return {TableMutation::Kind::SetRow, row, page, kInvalidPage};
}
TableMutation set_row_empty(SlotId row) {
  return {TableMutation::Kind::SetRowEmpty, row, kInvalidPage, kInvalidPage};
}
TableMutation set_pending(SlotId row) {
  return {TableMutation::Kind::SetPending, row, kInvalidPage, kInvalidPage};
}
TableMutation clear_pending(SlotId row) {
  return {TableMutation::Kind::ClearPending, row, kInvalidPage, kInvalidPage};
}
TableMutation note_data(PageId page, PageId machine) {
  return {TableMutation::Kind::NoteData, 0, page, machine};
}
TableMutation set_occupant(SlotId row, PageId page) {
  return {TableMutation::Kind::SetOccupant, row, page, kInvalidPage};
}
TableMutation ras_park(SlotId row) {
  return {TableMutation::Kind::RasPark, row, kInvalidPage, kInvalidPage};
}
}  // namespace

MigrationEngine::MigrationEngine(TranslationTable& table,
                                 DramSystem& on_package,
                                 DramSystem& off_package,
                                 MigrationDesign design)
    : table_(table), on_(on_package), off_(off_package), design_(design) {
  HMM_CHECK(table.mode() == table_mode(design),
            "migration design and table mode disagree");
}

std::uint64_t MigrationEngine::chunk_size() const noexcept {
  const Geometry& g = table_.geometry();
  // Small enough that one chunk's data-bus hold is comparable to a
  // row miss (so demand traffic is barely perturbed, as a real controller
  // interleaving at burst granularity would behave), large enough that a
  // 4MB page copy stays within a few thousand scheduler events.
  const std::uint64_t by_page = g.page_bytes / 4096;
  return std::clamp<std::uint64_t>(by_page, 512, 4 * KiB);
}

bool MigrationEngine::can_swap_hot(PageId hot) const noexcept {
  if (design_ == MigrationDesign::Nomad) return false;  // use can_migrate
  if (!idle() || degraded_ || wedged_) return false;
  const Geometry& g = table_.geometry();
  if (hot >= g.total_pages() || hot == g.omega()) return false;
  // Hot page must actually be off-package right now.
  const PageCategory cat = table_.category(hot);
  if (cat == PageCategory::OriginalFast || cat == PageCategory::MigratedFast)
    return false;
  if (table_.mode() == TableMode::HardwareNMinus1 &&
      !table_.empty_slot().has_value() && cat != PageCategory::Ghost)
    return false;
  // RAS screening: the plan must never write into a failing or retired
  // frame, and a parked row (its left page permanently at Ω after an N-1
  // retirement) is outside the choreography for good.
  const RasFrameView* rv = table_.ras_view();
  if (rv != nullptr) {
    if (rv->quarantined(g.page_of(table_.location_of(hot)))) return false;
    if (hot < g.slots() &&
        (rv->quarantined(hot) || table_.ras_parked(static_cast<SlotId>(hot))))
      return false;
    if (table_.mode() == TableMode::HardwareNMinus1 &&
        table_.empty_slot().has_value() &&
        rv->quarantined(*table_.empty_slot()))
      return false;
  }
  return true;
}

bool MigrationEngine::can_swap(PageId hot, SlotId cold_slot) const noexcept {
  if (!can_swap_hot(hot)) return false;
  const Geometry& g = table_.geometry();
  if (cold_slot >= g.slots()) return false;
  const PageId cold = table_.occupant(cold_slot);
  if (cold == kInvalidPage) return false;  // the empty slot
  if (table_.pending(cold_slot)) return false;
  if (table_.mode() == TableMode::HardwareNMinus1) {
    // Exclude c == e': the victim may not be the page occupying the hot
    // page's own slot (phase 1 is about to relocate that occupant).
    if (hot < g.slots() && table_.occupant(static_cast<SlotId>(hot)) == cold)
      return false;
  }
  // RAS screening of the cold side: the plan writes into the slot and
  // moves its occupant, so neither frame may be failing.
  const RasFrameView* rv = table_.ras_view();
  if (rv != nullptr) {
    // Slot frames are machine frames 0..N-1, so slot id == frame id.
    if (rv->quarantined(cold_slot)) return false;
    if (cold >= g.slots() && rv->quarantined(cold)) return false;
  }
  return true;
}

std::vector<CopyStep> MigrationEngine::plan_swap(
    PageId hot, std::uint32_t hot_sub_block, SlotId cold_slot) const {
  const Geometry& g = table_.geometry();
  const PageId n = g.slots();
  const std::uint64_t page = g.page_bytes;
  const MachAddr omega = g.machine_base(g.omega());
  const PageId cold = table_.occupant(cold_slot);
  std::vector<CopyStep> plan;

  auto slot_base = [&](SlotId s) { return g.machine_base(s); };
  auto fill = [&](CopyStep& st, SlotId slot, PageId p, MachAddr old_base) {
    st.live_fill = design_ == MigrationDesign::LiveMigration;
    st.fill_slot = slot;
    st.fill_page = p;
    st.fill_old_base = old_base;
    st.start_sub_block = hot_sub_block;
  };

  if (design_ == MigrationDesign::N) {
    // Functional model of the basic design: a direct (buffered) exchange;
    // the controller stalls demand for the whole duration, and the table
    // is written once at the end.
    const PageId mh = g.page_of(table_.location_of(hot));
    CopyStep out;  // cold page leaves the slot
    out.src = slot_base(cold_slot);
    out.dst = g.machine_base(mh);
    out.bytes = page;
    plan.push_back(out);
    CopyStep in;  // hot page enters the slot
    in.src = g.machine_base(mh);
    in.dst = slot_base(cold_slot);
    in.bytes = page;
    in.after = {set_occupant(cold_slot, hot), note_data(hot, cold_slot),
                note_data(cold, mh)};
    plan.push_back(in);
    return plan;
  }

  // ---- N-1 / Live migration: the Fig 8 choreography -----------------------
  // Phase 1: bring the hot page on-package.
  if (hot < n && table_.occupant(static_cast<SlotId>(hot)) == kInvalidPage) {
    // The hot page is the Ghost page itself: refill its own (empty) slot.
    const auto e = static_cast<SlotId>(hot);
    CopyStep s1;
    s1.src = omega;
    s1.dst = slot_base(e);
    s1.bytes = page;
    fill(s1, e, hot, omega);
    s1.after = {set_row(e, hot), note_data(hot, hot)};
    plan.push_back(s1);
  } else if (hot >= n) {
    // Fig 8(a)/(b): hot is an Original Slow page living at its own home.
    const SlotId e = *table_.empty_slot();
    const PageId ghost = e;  // the empty row's left page is the Ghost page
    CopyStep s1;
    s1.src = g.machine_base(hot);
    s1.dst = slot_base(e);
    s1.bytes = page;
    fill(s1, e, hot, g.machine_base(hot));
    s1.after = {set_row(e, hot), set_pending(e), note_data(hot, e)};
    plan.push_back(s1);
    CopyStep s2;  // ghost page's data leaves Ω for the hot page's old home
    s2.src = omega;
    s2.dst = g.machine_base(hot);
    s2.bytes = page;
    s2.after = {clear_pending(e), note_data(ghost, hot)};
    plan.push_back(s2);
  } else {
    // Fig 8(c)/(d): hot is a Migrated Slow page; its slot is occupied by
    // partner page e' and its data lives at e's off-package home.
    const auto hslot = static_cast<SlotId>(hot);
    const PageId partner = table_.occupant(hslot);
    HMM_CHECK(partner != kInvalidPage && partner >= n,
              "Fig 8(c)/(d) swap planned without a Migrated Fast partner");
    const SlotId e = *table_.empty_slot();
    const PageId ghost = e;
    CopyStep s1;  // partner moves from the hot page's slot to the empty slot
    s1.src = slot_base(hslot);
    s1.dst = slot_base(e);
    s1.bytes = page;
    s1.after = {set_row(e, partner), set_pending(e), note_data(partner, e)};
    plan.push_back(s1);
    CopyStep s2;  // hot page comes home to its own slot
    s2.src = g.machine_base(partner);
    s2.dst = slot_base(hslot);
    s2.bytes = page;
    fill(s2, hslot, hot, g.machine_base(partner));
    s2.after = {set_row(hslot, hot), note_data(hot, hot)};
    plan.push_back(s2);
    CopyStep s3;  // ghost page's data leaves Ω for the partner's home
    s3.src = omega;
    s3.dst = g.machine_base(partner);
    s3.bytes = page;
    s3.after = {clear_pending(e), note_data(ghost, partner)};
    plan.push_back(s3);
  }

  // Phase 2: retire the cold page to Ω; its slot becomes the new empty slot.
  if (cold < n) {
    // Original Fast: slot index == page id.
    const auto cslot = static_cast<SlotId>(cold);
    CopyStep s4;
    s4.src = slot_base(cslot);
    s4.dst = omega;
    s4.bytes = page;
    s4.after = {set_row_empty(cslot), note_data(cold, g.omega())};
    plan.push_back(s4);
  } else {
    // Migrated Fast: the slot's left page parks at Ω, the cold page goes
    // back to its own home.
    const SlotId s = cold_slot;
    CopyStep s4;
    s4.src = g.machine_base(cold);  // left page's data is at cold's home
    s4.dst = omega;
    s4.bytes = page;
    s4.after = {set_pending(s), note_data(s, g.omega())};
    plan.push_back(s4);
    CopyStep s5;
    s5.src = slot_base(s);
    s5.dst = g.machine_base(cold);
    s5.bytes = page;
    s5.after = {set_row_empty(s), clear_pending(s), note_data(cold, cold)};
    plan.push_back(s5);
  }
  return plan;
}

bool MigrationEngine::can_migrate(PageId page) const noexcept {
  if (design_ != MigrationDesign::Nomad) return false;
  if (!idle() || degraded_ || wedged_) return false;
  const Geometry& g = table_.geometry();
  if (page >= g.total_pages() || page == g.omega()) return false;
  // RAS screening: never stream into a failing hole (the controller
  // relocates it to a spare first) and never migrate a spare's reserved
  // identity page.
  const RasFrameView* rv = table_.ras_view();
  if (rv != nullptr &&
      (rv->quarantined(table_.hole()) || rv->reserved_spare(page)))
    return false;
  // Only cross-boundary moves change the placement: promotion into an
  // on-package hole or demotion out of the on-package region.
  const MachAddr src = table_.location_of(page);
  const MachAddr dst = g.machine_base(table_.hole());
  return g.region_of(src) != g.region_of(dst);
}

std::vector<CopyStep> MigrationEngine::plan_txn(PageId page) const {
  const Geometry& g = table_.geometry();
  CopyStep st;
  st.src = table_.location_of(page);
  st.dst = g.machine_base(table_.hole());
  st.bytes = g.page_bytes;
  // The commit is the step's ONLY mutation: one atomic table write, so a
  // crash replay lands before or after the whole transaction.
  st.after = {commit_shadow_mutation()};
  return {st};
}

bool MigrationEngine::launch(std::vector<CopyStep> plan, Cycle now) {
  HMM_CHECK(!plan.empty(), "swap planned with no copy steps");
  steps_ = std::move(plan);
  ++stats_.swaps_started;
  swap_began_ = now;
  pass_ = 0;
  if (instant_) {
    // Fast-forward: apply the choreography's end state without copies.
    for (const CopyStep& st : steps_)
      for (const TableMutation& m : st.after) apply(m);
    steps_.clear();
    finish_swap(now);
    return true;
  }
  begin_step(now);
  return true;
}

bool MigrationEngine::launch_txn(PageId page, Cycle now) {
  std::vector<CopyStep> plan = plan_txn(page);
  apply(begin_shadow_mutation(page, table_.hole()));
  return launch(std::move(plan), now);
}

bool MigrationEngine::start_migration(PageId page, Cycle now) {
  if (!can_migrate(page)) return false;
  return launch_txn(page, now);
}

bool MigrationEngine::start_swap(PageId hot, std::uint32_t hot_sub_block,
                                 SlotId cold_slot, Cycle now) {
  if (!can_swap(hot, cold_slot)) return false;
  return launch(plan_swap(hot, hot_sub_block, cold_slot), now);
}

bool MigrationEngine::can_evacuate(PageId frame) const noexcept {
  if (!idle() || degraded_ || wedged_) return false;
  const Geometry& g = table_.geometry();
  if (frame >= g.total_pages() || frame == g.omega()) return false;
  const PageId v = table_.page_at(frame);
  if (v == kInvalidPage) return false;  // data-free: retire directly
  const RasFrameView* rv = table_.ras_view();
  switch (design_) {
    case MigrationDesign::N:
      return true;  // the placement map can express any relocation
    case MigrationDesign::NMinus1:
    case MigrationDesign::LiveMigration: {
      // Only two placements are expressible: an Original Slow page at its
      // failing home, or a Migrated Fast page in a failing slot. Both
      // move into the empty slot, whose row is then parked forever.
      const auto e = table_.empty_slot();
      if (!e.has_value()) return false;
      if (rv != nullptr && rv->quarantined(*e)) return false;
      if (frame >= g.slots()) return v == frame;
      const auto s = static_cast<SlotId>(frame);
      return v >= g.slots() && table_.occupant(s) == v &&
             !table_.pending(s);
    }
    case MigrationDesign::Nomad:
      return !table_.shadow_active() && v != g.omega() &&
             !(rv != nullptr && rv->quarantined(table_.hole()));
  }
  return false;
}

bool MigrationEngine::start_evacuation(PageId frame, PageId spare,
                                       Cycle now) {
  if (!can_evacuate(frame)) return false;
  const Geometry& g = table_.geometry();
  const PageId v = table_.page_at(frame);

  // A perfectly ordinary shadow transaction — the occupant streams into
  // the hole while the failing frame keeps serving — except the
  // cross-package-boundary profitability rule is waived: this move is
  // for survival, not speed. The caller relocates the post-commit hole
  // (the failing frame) to a spare.
  if (design_ == MigrationDesign::Nomad) return launch_txn(v, now);

  CopyStep st;
  st.src = g.machine_base(frame);
  st.bytes = g.page_bytes;
  if (design_ == MigrationDesign::N) {
    HMM_CHECK(spare != kInvalidPage && table_.page_at(spare) == kInvalidPage,
              "design-N evacuation needs a data-free spare frame");
    st.dst = g.machine_base(spare);
    st.after = {note_data(v, spare)};
    if (frame < g.slots())
      st.after.push_back(
          set_occupant(static_cast<SlotId>(frame), kInvalidPage));
  } else {
    // N-1 / Live: one copy into the empty slot; the landing row keeps its
    // P bit forever (parked), encoding that its left page — the ghost at
    // this instant — stays at Ω. This consumes the choreography's only
    // free landing zone, so the engine degrades once the copy completes
    // (see finish_swap) and a second retirement is inexpressible.
    const SlotId e = *table_.empty_slot();
    st.dst = g.machine_base(e);
    st.after = {set_row(e, v), set_pending(e), note_data(v, e),
                ras_park(e)};
  }
  return launch({st}, now);
}

bool MigrationEngine::abort_current(Cycle now) {
  if (idle() || wedged_) return false;
  if (design_ == MigrationDesign::N) {
    // Design N applies every table mutation in its final step, so
    // dropping an unfinished plan is a clean rollback — no wedge needed
    // for this *deliberate* abort (only injected mid-copy faults model
    // the design's unrecoverable hardware states).
    drop_plan(now);
    return true;
  }
  abort_swap(now);
  return true;
}

std::uint64_t MigrationEngine::chunk_offset(std::uint64_t k) const noexcept {
  if (!pass_offsets_.empty()) return pass_offsets_[k];
  const std::uint64_t idx = (first_chunk_ + k) % chunks_total_;
  return idx * chunk_size();
}

void MigrationEngine::begin_step(Cycle at) {
  const CopyStep& st = steps_.front();
  const std::uint64_t chunk = chunk_size();
  if (design_ == MigrationDesign::Nomad) {
    // Pass 0 streams the whole page in order; finish_pass() re-streams
    // only what demand writes dirtied.
    std::vector<std::uint64_t> offsets;
    for (std::uint64_t off = 0; off < st.bytes; off += chunk)
      offsets.push_back(off);
    begin_pass(std::move(offsets), at);
    return;
  }
  const std::uint64_t chunks = std::max<std::uint64_t>(1, st.bytes / chunk);
  std::uint64_t first = 0;
  if (st.live_fill) {
    const Geometry& g = table_.geometry();
    table_.begin_fill(st.fill_slot, st.fill_page, st.fill_old_base);
    const std::uint64_t start_byte =
        static_cast<std::uint64_t>(st.start_sub_block) * g.sub_block_bytes;
    first = (start_byte / chunk) % chunks;
  }
  stream(chunks, first, at);
}

void MigrationEngine::begin_pass(std::vector<std::uint64_t> offsets,
                                 Cycle at) {
  HMM_CHECK(!offsets.empty(), "nomad copy pass with no chunks");
  pass_offsets_ = std::move(offsets);
  stream(pass_offsets_.size(), 0, at);
}

void MigrationEngine::stream(std::uint64_t chunks, std::uint64_t first,
                             Cycle at) {
  chunks_total_ = chunks;
  next_chunk_ = 0;
  chunks_completed_ = 0;
  first_chunk_ = first;
  retry_count_.clear();
  while (next_chunk_ < chunks_total_ && next_chunk_ < kCopyWindow)
    submit_read(next_chunk_++, at);
}

void MigrationEngine::submit_read(std::uint64_t chunk, Cycle at) {
  const CopyStep& st = steps_.front();
  const std::uint64_t offset = chunk_offset(chunk);
  const MachAddr addr = st.src + offset;
  const Geometry& g = table_.geometry();
  if (design_ == MigrationDesign::Nomad && table_.shadow_active()) {
    // A sub-block's dirty bit is cleared when the chunk holding its FIRST
    // byte is submitted for (re-)reading. Clearing at submission rather
    // than completion is conservative: a demand write racing the
    // in-flight read re-dirties the sub-block and forces another pass,
    // even if the read would have observed the new data.
    const std::uint64_t sub = g.sub_block_bytes;
    const std::uint64_t end = offset + chunk_size();
    for (std::uint64_t b = ((offset + sub - 1) / sub) * sub; b < end;
         b += sub)
      table_.shadow_clear_dirty(g.sub_block_of(b));
  }
  DramSystem& sys = g.region_of(addr) == Region::OnPackage ? on_ : off_;
  const RequestId id = sys.submit(
      addr, static_cast<std::uint32_t>(chunk_size()), AccessType::Read,
      Priority::Background, at, static_cast<int>(chunk));
  inflight_[key(sys.region(), id)] = InFlightChunk{chunk, false};
}

void MigrationEngine::submit_write(std::uint64_t chunk, Cycle at) {
  const CopyStep& st = steps_.front();
  const MachAddr addr = st.dst + chunk_offset(chunk);
  const Geometry& g = table_.geometry();
  DramSystem& sys = g.region_of(addr) == Region::OnPackage ? on_ : off_;
  const RequestId id = sys.submit(
      addr, static_cast<std::uint32_t>(chunk_size()), AccessType::Write,
      Priority::Background, at, static_cast<int>(chunk));
  inflight_[key(sys.region(), id)] = InFlightChunk{chunk, true};
}

void MigrationEngine::on_completion(const DramCompletion& c, Region from) {
  if (c.priority != Priority::Background) return;
  const auto it = inflight_.find(key(from, c.id));
  if (it == inflight_.end()) return;
  const InFlightChunk fc = it->second;
  inflight_.erase(it);

  if (injector_ != nullptr && injector_->enabled()) {
    using fault::FaultSite;
    if (injector_->fires(FaultSite::SwapAbort, fc.chunk)) {
      // The whole swap fails mid-flight. The basic N design has no
      // recovery choreography, so it wedges; N-1/Live roll back to the
      // last completed step boundary (always a valid table state).
      if (design_ == MigrationDesign::N)
        wedge();
      else
        abort_swap(c.finish);
      return;
    }
    if (injector_->fires(FaultSite::MigrationChunkDrop, fc.chunk)) {
      ++stats_.chunks_dropped;
      handle_chunk_failure(fc, c.finish);
      return;
    }
    if (injector_->fires(FaultSite::MigrationChunkDelay, fc.chunk)) {
      // Transient: the chunk must be re-streamed, but costs no retry budget.
      ++stats_.chunks_delayed;
      resubmit(fc, c.finish + kChunkDelayCycles);
      return;
    }
  }

  if (!fc.write_phase) {
    submit_write(fc.chunk, c.finish);
    return;
  }

  // Write landed: the chunk is complete.
  const Geometry& g = table_.geometry();
  const CopyStep& st = steps_.front();
  const std::uint64_t offset = chunk_offset(fc.chunk);
  stats_.bytes_copied += chunk_size();
  const bool shadow = design_ == MigrationDesign::Nomad &&
                      table_.shadow_active();
  if (st.live_fill || shadow) {
    // A sub-block becomes servable (live fill) or counts as filled (the
    // nomad shadow copy) only once its LAST byte has been copied: chunks
    // may be smaller than a sub-block, and within a sub-block chunks
    // complete in order on the serialized channel, so last-byte
    // completion implies the whole sub-block arrived.
    const std::uint64_t sub = g.sub_block_bytes;
    const std::uint64_t end = offset + chunk_size();
    for (std::uint64_t b = (offset / sub) * sub; b + sub <= end; b += sub) {
      if (st.live_fill)
        table_.mark_sub_block(g.sub_block_of(b));
      else
        table_.shadow_mark_filled(g.sub_block_of(b));
    }
  }
  ++chunks_completed_;
  if (next_chunk_ < chunks_total_) {
    submit_read(next_chunk_++, c.finish);
  } else if (chunks_completed_ == chunks_total_ && inflight_.empty()) {
    if (design_ == MigrationDesign::Nomad)
      finish_pass(c.finish);
    else
      finish_step(c.finish);
  }
}

void MigrationEngine::resubmit(const InFlightChunk& fc, Cycle at) {
  if (fc.write_phase)
    submit_write(fc.chunk, at);
  else
    submit_read(fc.chunk, at);
}

void MigrationEngine::handle_chunk_failure(const InFlightChunk& fc, Cycle at) {
  const std::uint64_t k = (fc.chunk << 1) | (fc.write_phase ? 1u : 0u);
  const unsigned tries = ++retry_count_[k];
  if (tries <= kMaxChunkRetries) {
    ++stats_.chunk_retries;
    const Cycle backoff = kRetryBackoff << (tries - 1);
    resubmit(fc, at + backoff);
    return;
  }
  // Retry budget exhausted.
  if (design_ == MigrationDesign::N)
    wedge();
  else
    abort_swap(at);
}

void MigrationEngine::finish_pass(Cycle at) {
  const Geometry& g = table_.geometry();
  const std::uint64_t cs = chunk_size();
  const std::uint64_t sub = g.sub_block_bytes;
  // Collect the chunk offsets covering every sub-block still unfilled or
  // dirtied by a demand write during this pass.
  std::vector<std::uint64_t> next;
  for (std::uint32_t b = 0; b < g.sub_blocks_per_page(); ++b) {
    if (table_.shadow_filled(b) && !table_.shadow_dirty(b)) continue;
    const std::uint64_t first = static_cast<std::uint64_t>(b) * sub;
    const std::uint64_t lo = (first / cs) * cs;
    for (std::uint64_t off = lo; off < first + sub; off += cs)
      if (next.empty() || next.back() < off) next.push_back(off);
  }
  if (next.empty()) {
    // Every sub-block filled and clean: the copy converged — commit.
    pass_offsets_.clear();
    pass_ = 0;
    finish_step(at);
    return;
  }
  if (pass_ + 1 >= kMaxCopyPasses) {
    // The writer is outrunning the copier; give up cleanly.
    abort_swap(at);
    return;
  }
  ++pass_;
  begin_pass(std::move(next), at);
}

void MigrationEngine::drop_plan(Cycle at) {
  // Table mutations only ever apply at step completions, so the current
  // table state *is* the last step boundary — a valid Fig-8 state where
  // every page still has exactly one data home. Rolling back is therefore
  // just discarding the unfinished remainder of the plan. A pending bit
  // left set keeps routing its row's left page to Ω, which is where that
  // page's data genuinely still lives — it must NOT be cleared here.
  // Nomad's rollback is one mutation that discards the shadow copy: the
  // table is bit-identical to its pre-begin state (begin never touched
  // the routing).
  if (table_.fill_active()) table_.end_fill();
  if (table_.shadow_active()) apply(abort_shadow_mutation());
  steps_.clear();
  inflight_.clear();
  retry_count_.clear();
  pass_offsets_.clear();
  pass_ = 0;
  ++stats_.swaps_aborted;
  stats_.busy_cycles += at - swap_began_;
}

void MigrationEngine::abort_swap(Cycle at) {
  drop_plan(at);
  // Aborting after the hot page claimed the empty slot permanently consumes
  // it; without an empty slot the N-1 choreography cannot start, so the
  // engine degrades immediately. Otherwise degrade only after K consecutive
  // failures (transient storms should not end migration for good). Nomad
  // never loses its hole, so only a persistent fault storm freezes it.
  if (++consecutive_aborts_ >= kDegradeAfterAborts || landing_zone_lost())
    enter_degraded(at);
}

bool MigrationEngine::landing_zone_lost() const noexcept {
  return table_.mode() == TableMode::HardwareNMinus1 &&
         !table_.empty_slot().has_value();
}

void MigrationEngine::wedge() {
  // Keep steps_ populated: idle() stays false forever, demand traffic in
  // the stalled N design can never resume, and the MemSim watchdog reports
  // the wedge as a structured SimError instead of spinning.
  wedged_ = true;
  ++stats_.swaps_wedged;
  inflight_.clear();
  retry_count_.clear();
}

void MigrationEngine::enter_degraded(Cycle at) {
  if (degraded_) return;
  degraded_ = true;
  degraded_at_ = at;
}

void MigrationEngine::apply_mutation(TranslationTable& table,
                                     const TableMutation& m) {
  switch (m.kind) {
    case TableMutation::Kind::SetRow: table.set_row(m.row, m.page); break;
    case TableMutation::Kind::SetRowEmpty: table.set_row_empty(m.row); break;
    case TableMutation::Kind::SetPending: table.set_pending(m.row, true); break;
    case TableMutation::Kind::ClearPending:
      table.set_pending(m.row, false);
      break;
    case TableMutation::Kind::NoteData:
      table.note_data_at(m.page, m.machine);
      break;
    case TableMutation::Kind::SetOccupant:
      table.set_occupant(m.row, m.page);
      break;
    case TableMutation::Kind::BeginShadow:
      table.begin_shadow(m.page, m.machine);
      break;
    case TableMutation::Kind::CommitShadow: table.commit_shadow(); break;
    case TableMutation::Kind::AbortShadow: table.abort_shadow(); break;
    case TableMutation::Kind::RasPark:
      table.set_pending(m.row, true);
      table.set_ras_parked(m.row);
      break;
  }
}

void MigrationEngine::apply(const TableMutation& m) {
  ++stats_.table_updates;
  apply_mutation(table_, m);
}

void MigrationEngine::finish_step(Cycle at) {
  CopyStep st = std::move(steps_.front());
  steps_.erase(steps_.begin());
  for (const TableMutation& m : st.after) apply(m);
  if (st.live_fill) table_.end_fill();
  if (!steps_.empty()) {
    begin_step(at);
    return;
  }
  consecutive_aborts_ = 0;
  finish_swap(at);
}

void MigrationEngine::finish_swap(Cycle at) {
  ++stats_.swaps_completed;
  stats_.busy_cycles += at - swap_began_;
  // An N-1 retirement parked the empty slot for good: without a free
  // landing zone the choreography cannot start again, so the engine
  // degrades (placement frozen, demand still served).
  if (landing_zone_lost()) enter_degraded(at);
}

void MigrationEngine::save(snap::Writer& w) const {
  const_cast<MigrationEngine*>(this)->io(w);
}

void MigrationEngine::restore(snap::Reader& r) {
  io(r);
  // A CRC-valid section can still carry an address, row, page or chunk
  // index the table and the copy cannot hold; refuse it before a step
  // streams or applies it.
  const Geometry& g = table_.geometry();
  const auto refuse = [](const std::string& what) {
    snap::snapshot_error("migration engine: " + what);
  };
  const auto page_base = [&](MachAddr a) {
    return a < g.total_bytes && g.offset_of(a) == 0;
  };
  for (const CopyStep& st : steps_) {
    // Every plan copies exactly one page between two machine pages.
    if (!page_base(st.src) || !page_base(st.dst) || st.bytes != g.page_bytes)
      refuse("copy step is not one page between machine pages");
    if (st.live_fill &&
        (st.fill_slot >= g.slots() || st.fill_page >= g.total_pages() ||
         !page_base(st.fill_old_base) ||
         st.start_sub_block >= g.sub_blocks_per_page()))
      refuse("live-fill slot, page, old base or start sub-block out of range");
    for (const TableMutation& m : st.after) {
      using Kind = TableMutation::Kind;
      if (m.kind > Kind::RasPark)
        refuse("unknown table mutation kind " +
               std::to_string(static_cast<unsigned>(m.kind)));
      bool row = true;
      bool page = true;
      bool machine = false;
      switch (m.kind) {
        case Kind::SetRow: break;
        case Kind::SetRowEmpty:
        case Kind::SetPending:
        case Kind::ClearPending:
        case Kind::RasPark: page = false; break;
        // Design N's evacuation empties a slot with kInvalidPage.
        case Kind::SetOccupant: page = m.page != kInvalidPage; break;
        case Kind::NoteData:
        case Kind::BeginShadow: row = false; machine = true; break;
        case Kind::CommitShadow:
        case Kind::AbortShadow: row = page = false; break;
      }
      if ((row && m.row >= g.slots()) ||
          (page && m.page >= g.total_pages()) ||
          (machine && m.machine >= g.total_pages()))
        refuse("table mutation row or page out of range");
    }
  }
  if (next_chunk_ > chunks_total_ || chunks_completed_ > next_chunk_)
    refuse("chunk cursors out of order");
  // chunk_offset() takes the rotation modulo chunks_total_.
  if (!steps_.empty() &&
      (chunks_total_ == 0 || first_chunk_ >= chunks_total_))
    refuse("active copy without a chunk rotation");
  if (!pass_offsets_.empty() && pass_offsets_.size() != chunks_total_)
    refuse("copy pass length disagrees with its chunk count");
  for (const std::uint64_t off : pass_offsets_)
    if (steps_.empty() || off % chunk_size() != 0 ||
        off >= steps_.front().bytes)
      refuse("copy pass offset outside the step's page");
  for (const auto& entry : inflight_)
    if (entry.second.chunk >= chunks_total_)
      refuse("in-flight chunk out of range");
}

template <class Ar>
void MigrationEngine::io(Ar& ar) {
  snap::section(ar, snap::tag('M', 'E', 'N', 'G'), [&] {
    snap::seq(ar, steps_, [&](auto& s) {
      snap::u64(ar, s.src);
      snap::u64(ar, s.dst);
      snap::u64(ar, s.bytes);
      snap::b(ar, s.live_fill);
      snap::u64(ar, s.fill_slot);
      snap::u64(ar, s.fill_page);
      snap::u64(ar, s.fill_old_base);
      snap::u32(ar, s.start_sub_block);
      snap::seq(ar, s.after, [&](auto& m) {
        snap::u8(ar, m.kind);
        snap::u64(ar, m.row);
        snap::u64(ar, m.page);
        snap::u64(ar, m.machine);
      });
    });
    snap::u64(ar, chunks_total_);
    snap::u64(ar, next_chunk_);
    snap::u64(ar, chunks_completed_);
    snap::u64(ar, first_chunk_);
    // Nomad only, so the other designs' byte layouts are unchanged; the
    // other designs never move pass_ or pass_offsets_ off their defaults.
    if (design_ == MigrationDesign::Nomad) {
      snap::u32(ar, pass_);
      snap::seq(ar, pass_offsets_, [&](auto& off) { snap::u64(ar, off); });
    }
    snap::sorted_map(ar, inflight_, [&](auto& k, auto& fc) {
      snap::u64(ar, k);
      snap::u64(ar, fc.chunk);
      snap::b(ar, fc.write_phase);
    });
    snap::sorted_map(ar, retry_count_, [&](auto& k, auto& n) {
      snap::u64(ar, k);
      snap::u32(ar, n);
    });
    snap::u64(ar, swap_began_);
    snap::b(ar, instant_);
    snap::u32(ar, consecutive_aborts_);
    snap::b(ar, wedged_);
    snap::b(ar, degraded_);
    snap::u64(ar, degraded_at_);
    snap::u64(ar, stats_.swaps_started);
    snap::u64(ar, stats_.swaps_completed);
    snap::u64(ar, stats_.bytes_copied);
    snap::u64(ar, stats_.table_updates);
    snap::u64(ar, stats_.busy_cycles);
    snap::u64(ar, stats_.chunks_dropped);
    snap::u64(ar, stats_.chunks_delayed);
    snap::u64(ar, stats_.chunk_retries);
    snap::u64(ar, stats_.swaps_aborted);
    snap::u64(ar, stats_.swaps_wedged);
  });
}

}  // namespace hmm
