#include "core/translation_table.hh"

#include <limits>
#include <numeric>
#include <string>

#include "fault/sim_error.hh"

namespace hmm {

namespace {
/// A page-indexed array in sorted_map's wire form: a u64 count, then
/// (u64 page, u64 value) for each page off its `blank(page)` entry, pages
/// ascending. Restore allocates the array at the first entry and refuses
/// one it cannot hold: a page past `pages`, a value from `bound` up, or
/// the blank entry itself (it would re-save as no entry).
template <class Ar, class T, class Blank>
void page_entries(Ar& ar, std::vector<T>& v, PageId pages,
                  std::uint64_t bound, Blank blank) {
  if constexpr (snap::kSaving<Ar>) {
    std::vector<PageId> keys;
    for (PageId p = 0; p < v.size(); ++p)
      if (v[p] != blank(p)) keys.push_back(p);
    ar.u64(keys.size());
    for (const PageId p : keys) {
      ar.u64(p);
      ar.u64(v[p]);
    }
  } else {
    v.clear();
    PageId prev = 0;
    for (std::uint64_t n = ar.count(), i = 0; i < n; ++i) {
      const PageId p = ar.u64();
      const std::uint64_t x = ar.u64();
      snap::ascending(i, prev, p);
      prev = p;
      if (p >= pages || x >= bound || x == blank(p))
        snap::snapshot_error("translation table: page " + std::to_string(p) +
                             " has an entry the table cannot hold");
      if (v.empty())
        for (PageId q = 0; q < pages; ++q)
          v.push_back(static_cast<T>(blank(q)));
      v[p] = static_cast<T>(x);
    }
  }
}
}  // namespace

TranslationTable::TranslationTable(const Geometry& g, TableMode mode)
    : geom_(g), mode_(mode), slots_(g.slots()), rows_(g.slots()) {
  HMM_CHECK(g.valid(), "translation table built on an invalid geometry");
  HMM_CHECK(g.total_pages() <= std::numeric_limits<std::uint32_t>::max(),
            "translation table page ids must fit its 32-bit entries");
  for (SlotId s = 0; s < slots_; ++s) rows_[s].occupant = s;
  if (mode_ == TableMode::HardwareNMinus1) {
    // The last slot starts empty; its left page is the initial Ghost page,
    // parked at Ω by the boot-time driver (Section III-A).
    const SlotId last = static_cast<SlotId>(slots_ - 1);
    rows_[last].occupant = kInvalidPage;
    empty_cache_ = last;
    note_data_at(last, geom_.omega());
  }
  if (mode_ == TableMode::Shadow) {
    // The reserved page Ω is the boot-time hole: it holds no OS page's
    // data, so the first transaction can stream into it immediately.
    hole_ = geom_.omega();
  }
}

void TranslationTable::cam_set(PageId page, SlotId s) {
  HMM_CHECK(page < geom_.total_pages(),
            "CAM entry for a page past the geometry");
  if (cam_.empty()) cam_.assign(geom_.total_pages(), kNoSlot);
  cam_[page] = s;
}

MachAddr TranslationTable::location_of(PageId p) const noexcept {
  return geom_.machine_base(shadow_location(p));
}

PageId TranslationTable::occupant(SlotId s) const noexcept {
  return rows_[s].occupant;
}

std::optional<SlotId> TranslationTable::empty_slot() const noexcept {
  return empty_cache_;
}

bool TranslationTable::pending(SlotId s) const noexcept {
  return rows_[s].pending;
}

Route TranslationTable::translate(PhysAddr addr) const noexcept {
  const PageId p = geom_.page_of(addr);
  const std::uint64_t off = geom_.offset_of(addr);

  // Live migration: the filling page is routed sub-block by sub-block.
  if (fill_active_ && p == fill_page_) {
    const std::uint32_t sb = geom_.sub_block_of(off);
    if (fill_bitmap_[sb]) {
      const MachAddr m = geom_.machine_base(fill_slot_) + off;
      return Route{Region::OnPackage, m, true};
    }
    return Route{geom_.region_of(fill_old_base_), fill_old_base_ + off, false};
  }

  PageId machine_page;
  if (mode_ != TableMode::HardwareNMinus1) {
    // FunctionalN and Shadow both serve from the placement map; in Shadow
    // mode a page under transaction keeps routing to its committed home.
    machine_page = shadow_location(p);
  } else if (p < slots_) {
    const RowState& row = rows_[static_cast<SlotId>(p)];
    if (row.pending || row.occupant == kInvalidPage) {
      machine_page = geom_.omega();  // data parked at the reserved page
    } else {
      // occupant == p: OF, slot p. occupant == q: MS, parked at q's home.
      machine_page = row.occupant;
    }
  } else {
    const SlotId s = cam_slot(p);
    machine_page = s != kNoSlot ? s : p;  // MF : OS
  }

  const MachAddr m = geom_.machine_base(machine_page) + off;
  return Route{geom_.region_of(m), m, false};
}

PageCategory TranslationTable::category(PageId p) const noexcept {
  if (mode_ != TableMode::HardwareNMinus1) {
    const PageId loc = shadow_location(p);
    const bool fast = loc < slots_;
    if (p < slots_) return fast ? PageCategory::OriginalFast
                                : PageCategory::MigratedSlow;
    return fast ? PageCategory::MigratedFast : PageCategory::OriginalSlow;
  }
  if (p < slots_) {
    const RowState& row = rows_[static_cast<SlotId>(p)];
    if (row.occupant == kInvalidPage || row.pending) return PageCategory::Ghost;
    return row.occupant == p ? PageCategory::OriginalFast
                             : PageCategory::MigratedSlow;
  }
  return cam_slot(p) != kNoSlot ? PageCategory::MigratedFast
                                : PageCategory::OriginalSlow;
}

void TranslationTable::set_row(SlotId row, PageId page) {
  RowState& r = rows_[row];
  // Drop the displaced page's CAM entry — unless that page has already
  // re-registered in another slot mid-choreography (e.g. the partner
  // page of Fig 8(c)/(d) moves to the empty slot before its old row is
  // rewritten; the stale row must not clobber the fresh entry).
  if (r.occupant >= slots_ && cam_slot(r.occupant) == row)
    cam_set(r.occupant, kNoSlot);
  r.occupant = page;
  if (page >= slots_) cam_set(page, row);
  if (empty_cache_ == row) empty_cache_.reset();
}

void TranslationTable::set_row_empty(SlotId row) {
  RowState& r = rows_[row];
  if (r.occupant >= slots_ && cam_slot(r.occupant) == row)
    cam_set(r.occupant, kNoSlot);
  r.occupant = kInvalidPage;
  empty_cache_ = row;
}

void TranslationTable::set_pending(SlotId row, bool value) {
  rows_[row].pending = value;
}

void TranslationTable::begin_fill(SlotId slot, PageId page,
                                  MachAddr old_base) {
  HMM_CHECK(!fill_active_, "begin_fill while a fill is already active");
  fill_active_ = true;
  fill_slot_ = slot;
  fill_page_ = page;
  fill_old_base_ = old_base;
  fill_bitmap_.assign(geom_.sub_blocks_per_page(), false);
}

void TranslationTable::mark_sub_block(std::uint32_t index) {
  HMM_CHECK(fill_active_ && index < fill_bitmap_.size(),
            "mark_sub_block outside an active fill window");
  fill_bitmap_[index] = true;
}

bool TranslationTable::sub_block_ready(std::uint32_t index) const noexcept {
  return fill_active_ && index < fill_bitmap_.size() && fill_bitmap_[index];
}

void TranslationTable::end_fill() {
  HMM_CHECK(fill_active_, "end_fill without an active fill");
  fill_active_ = false;
  fill_page_ = kInvalidPage;
}

std::uint32_t TranslationTable::fill_ready_count() const noexcept {
  if (!fill_active_) return 0;
  std::uint32_t n = 0;
  for (const bool b : fill_bitmap_)
    if (b) ++n;
  return n;
}

void TranslationTable::flip_pending_bit(SlotId row) {
  rows_[row].pending = !rows_[row].pending;
}

void TranslationTable::flip_occupant_bit(SlotId row, unsigned bit) {
  // Deliberately bypasses set_row(): the CAM and empty-slot cache are left
  // stale, exactly as a hardware bit-flip would leave them.
  rows_[row].occupant ^= (PageId{1} << (bit % 32));
}

void TranslationTable::note_data_at(PageId p, PageId machine_page) {
  const PageId pages = geom_.total_pages();
  HMM_CHECK(p < pages && machine_page < pages,
            "placement of a page past the geometry");
  if (placed_.empty()) {
    if (machine_page == p) return;
    placed_.resize(pages);
    std::iota(placed_.begin(), placed_.end(), std::uint32_t{0});
  }
  const PageId old = placed_[p];
  placed_[p] = static_cast<std::uint32_t>(machine_page);
  if (resident_.empty()) return;
  if (resident_[old] == p) resident_[old] = kNoPage;
  if (resident_[machine_page] == kNoPage)
    resident_[machine_page] = static_cast<std::uint32_t>(p);
  else
    resident_.clear();  // two pages share it until the next note
}

void TranslationTable::set_occupant(SlotId s, PageId page) {
  rows_[s].occupant = page;
}

bool TranslationTable::index_residents() const {
  const PageId pages = geom_.total_pages();
  resident_.assign(pages, kNoPage);
  for (PageId p = 0; p < pages; ++p)
    if (p != geom_.omega() && shadow_location(p) == p)
      resident_[p] = static_cast<std::uint32_t>(p);
  // A page placed off its home wins over the home's own page (a spare's,
  // pressed into service), but not over another placed page.
  bool one_each = true;
  for (PageId p = 0; p < placed_.size(); ++p) {
    const std::uint32_t m = placed_[p];
    if (m == p) continue;
    const std::uint32_t there = resident_[m];
    one_each &= there == kNoPage || placed_[there] == there;
    resident_[m] = static_cast<std::uint32_t>(p);
  }
  return one_each;
}

PageId TranslationTable::page_at(PageId machine_page) const {
  if (resident_.empty()) index_residents();
  if (machine_page >= resident_.size()) return kInvalidPage;
  const std::uint32_t p = resident_[machine_page];
  if (p != machine_page) return p == kNoPage ? kInvalidPage : p;
  // The identity page, unless the frame is the hole or RAS holds it
  // data-free: reserved spares and retired frames are by construction.
  const bool data_free =
      machine_page == hole_ ||
      (ras_view_ != nullptr && (ras_view_->reserved_spare(machine_page) ||
                                ras_view_->retired(machine_page)));
  return data_free ? kInvalidPage : machine_page;
}

void TranslationTable::set_ras_parked(SlotId row) {
  HMM_CHECK(mode_ == TableMode::HardwareNMinus1,
            "parked rows exist only in the N-1 hardware encoding");
  HMM_CHECK(row < slots_, "parked row out of range");
  if (!ras_parked(row)) ras_parked_.push_back(row);
}

bool TranslationTable::ras_parked(SlotId row) const noexcept {
  for (const SlotId s : ras_parked_)
    if (s == row) return true;
  return false;
}

void TranslationTable::relocate_hole(PageId spare) {
  HMM_CHECK(mode_ == TableMode::Shadow,
            "relocate_hole outside Shadow mode");
  HMM_CHECK(!shadow_active_,
            "relocate_hole while a transaction is active");
  HMM_CHECK(page_at(spare) == kInvalidPage,
            "relocate_hole target still holds live data");
  hole_ = spare;
}

void TranslationTable::begin_shadow(PageId page, PageId dst_machine) {
  HMM_CHECK(mode_ == TableMode::Shadow, "begin_shadow outside Shadow mode");
  HMM_CHECK(!shadow_active_, "begin_shadow while a transaction is active");
  HMM_CHECK(page < geom_.total_pages() && page != geom_.omega(),
            "shadow transaction on a reserved or out-of-range page");
  HMM_CHECK(dst_machine == hole_,
            "shadow destination must be the current hole");
  shadow_active_ = true;
  shadow_page_ = page;
  shadow_src_ = shadow_location(page);
  shadow_dst_ = dst_machine;
  shadow_filled_.assign(geom_.sub_blocks_per_page(), false);
  shadow_dirty_.assign(geom_.sub_blocks_per_page(), false);
}

void TranslationTable::shadow_mark_filled(std::uint32_t index) {
  HMM_CHECK(shadow_active_ && index < shadow_filled_.size(),
            "shadow_mark_filled outside an active transaction");
  shadow_filled_[index] = true;
}

void TranslationTable::shadow_mark_dirty(std::uint32_t index) {
  HMM_CHECK(shadow_active_ && index < shadow_dirty_.size(),
            "shadow_mark_dirty outside an active transaction");
  shadow_dirty_[index] = true;
}

void TranslationTable::shadow_clear_dirty(std::uint32_t index) {
  HMM_CHECK(shadow_active_ && index < shadow_dirty_.size(),
            "shadow_clear_dirty outside an active transaction");
  shadow_dirty_[index] = false;
}

bool TranslationTable::shadow_filled(std::uint32_t index) const noexcept {
  return shadow_active_ && index < shadow_filled_.size() &&
         shadow_filled_[index];
}

bool TranslationTable::shadow_dirty(std::uint32_t index) const noexcept {
  return shadow_active_ && index < shadow_dirty_.size() &&
         shadow_dirty_[index];
}

std::uint32_t TranslationTable::shadow_dirty_count() const noexcept {
  std::uint32_t n = 0;
  for (const bool b : shadow_dirty_)
    if (b) ++n;
  return n;
}

void TranslationTable::commit_shadow() {
  HMM_CHECK(shadow_active_, "commit_shadow without an active transaction");
  // One atomic re-point: the page's home becomes the (filled) hole, and
  // the old home — which served every access up to this instant — becomes
  // the new hole. Nothing else moves, so a crash lands on either side of
  // a single table write, never in between.
  note_data_at(shadow_page_, shadow_dst_);
  hole_ = shadow_src_;
  shadow_active_ = false;
  shadow_page_ = kInvalidPage;
  shadow_src_ = kInvalidPage;
  shadow_dst_ = kInvalidPage;
  shadow_filled_.clear();
  shadow_dirty_.clear();
}

void TranslationTable::abort_shadow() {
  HMM_CHECK(shadow_active_, "abort_shadow without an active transaction");
  // begin_shadow never touched the routing, so dropping the shadow state
  // *is* the rollback: the committed home never stopped serving and the
  // hole is still the hole.
  shadow_active_ = false;
  shadow_page_ = kInvalidPage;
  shadow_src_ = kInvalidPage;
  shadow_dst_ = kInvalidPage;
  shadow_filled_.clear();
  shadow_dirty_.clear();
}

std::string TranslationTable::validate() const {
  if (mode_ == TableMode::FunctionalN) {
    // The basic N design has no P/F hardware; any such state is corruption.
    if (fill_active_) return "fill active in FunctionalN mode";
    for (SlotId s = 0; s < slots_; ++s)
      if (rows_[s].pending) return "pending bit set in FunctionalN mode";
    return placement_error();
  }

  if (mode_ == TableMode::Shadow) {
    // Shadow mode never uses the N-1 hardware: the rows stay identity and
    // no P/F state is ever set, so any such state is a fault (TableBitFlip
    // lands here).
    if (fill_active_) return "fill active in Shadow mode";
    if (empty_cache_.has_value()) return "empty slot marked in Shadow mode";
    for (SlotId s = 0; s < slots_; ++s) {
      if (rows_[s].pending) return "pending bit set in Shadow mode";
      if (rows_[s].occupant != s)
        return "occupant field corrupted in Shadow mode";
    }
    if (std::string err = placement_error(); !err.empty()) return err;
    if (hole_ >= geom_.total_pages()) return "hole out of range";
    if (ras_view_ != nullptr && ras_view_->retired(hole_))
      return "hole is a retired frame";
    if (hole_ != geom_.omega() && shadow_location(hole_) == hole_ &&
        !(ras_view_ != nullptr && ras_view_->reserved_spare(hole_)))
      return "hole overlaps a resident identity page";
    if (shadow_active_) {
      if (shadow_page_ >= geom_.total_pages() ||
          shadow_page_ == geom_.omega())
        return "shadow transaction on a reserved or out-of-range page";
      if (shadow_dst_ != hole_)
        return "shadow destination is not the hole";
      if (shadow_src_ != shadow_location(shadow_page_))
        return "shadow source disagrees with the committed home";
      if (shadow_filled_.size() != geom_.sub_blocks_per_page() ||
          shadow_dirty_.size() != geom_.sub_blocks_per_page())
        return "shadow bitmap size disagrees with geometry";
    } else {
      if (shadow_page_ != kInvalidPage || !shadow_filled_.empty() ||
          !shadow_dirty_.empty())
        return "shadow state left behind after commit/abort";
    }
    return {};
  }

  if (fill_active_) {
    if (fill_slot_ >= slots_) return "fill slot out of range";
    if (fill_page_ == kInvalidPage) return "fill active with no fill page";
    if (fill_bitmap_.size() != geom_.sub_blocks_per_page())
      return "fill bitmap size disagrees with geometry";
  }

  unsigned empties = 0;
  unsigned pendings = 0;
  for (SlotId s = 0; s < slots_; ++s) {
    const RowState& r = rows_[s];
    if (r.occupant == kInvalidPage) ++empties;
    if (r.pending) ++pendings;
    if (r.pending && r.occupant == kInvalidPage)
      return "pending bit set on an empty row";
    if (r.occupant != kInvalidPage && r.occupant >= geom_.total_pages())
      return "occupant field holds a page id outside the address space";
    if (r.occupant != kInvalidPage && r.occupant < slots_ &&
        r.occupant != s)
      return "page id < N stored outside its own slot";
    if (r.occupant != kInvalidPage && r.occupant >= slots_) {
      // Mid-choreography a page may transiently appear in two rows (its
      // data is duplicated); the CAM entry must exist and take priority.
      if (cam_slot(r.occupant) == kNoSlot)
        return "CAM out of sync with the right column";
    }
  }
  if (empties > 1) return "more than one empty slot";
  // A parked row's P bit is permanent (its left page — the ghost at the
  // moment of a RAS evacuation — keeps its data at Ω forever); only one
  // additional pending row may be in a transient swap window.
  for (const SlotId s : ras_parked_) {
    if (s >= slots_) return "parked row out of range";
    if (!rows_[s].pending) return "parked row lost its P bit";
    if (rows_[s].occupant == kInvalidPage) return "parked row marked empty";
  }
  if (pendings > 1 + static_cast<unsigned>(ras_parked_.size()))
    return "more than one pending row";
  if (empty_cache_.has_value() &&
      rows_[*empty_cache_].occupant != kInvalidPage)
    return "empty-slot cache points at an occupied row";

  // During a fill the encoding intentionally disagrees for the fill page;
  // everywhere else the encoding must reproduce the placement truth.
  for (SlotId s = 0; s < slots_; ++s) {
    const PageId p = s;
    if (fill_active_ && p == fill_page_) continue;
    const Route r = translate(geom_.machine_base(p));
    const MachAddr want = location_of(p);
    if (r.mach != want) return "encoding disagrees with placement (p < N)";
  }
  for (PageId page = 0; page < cam_.size(); ++page) {
    const SlotId slot = cam_[page];
    if (slot == kNoSlot || (fill_active_ && page == fill_page_)) continue;
    const Route r = translate(geom_.machine_base(page));
    if (r.mach != geom_.machine_base(slot))
      return "CAM translation disagrees with slot";
    if (shadow_location(page) != slot)
      return "encoding disagrees with placement (p >= N)";
  }
  return {};
}

std::string TranslationTable::placement_error() const {
  // The placement is a bijection on the pages placed off their homes; in
  // Shadow mode none is Ω or sits on the hole or on a resident home.
  const bool shadow = mode_ == TableMode::Shadow;
  std::vector<bool> taken(placed_.size());
  for (PageId p = 0; p < placed_.size(); ++p) {
    const PageId m = placed_[p];
    if (m == p) continue;
    if (shadow && p == geom_.omega())
      return "placement entry for the reserved page";
    if (shadow && m == hole_) return "page mapped at the hole";
    if (taken[m]) return "two pages mapped to the same machine page";
    taken[m] = true;
    if (ras_view_ != nullptr && ras_view_->retired(m))
      return "page mapped to a retired machine page";
    // If m is an OS page other than p itself, its identity resident must
    // have moved away (or never existed: spare-pool identity pages are
    // reserved at boot) or two pages would share the machine page.
    if (shadow && m != geom_.omega() && shadow_location(m) == m &&
        !(ras_view_ != nullptr && ras_view_->reserved_spare(m)))
      return "page mapped over a still-resident identity page";
  }
  return {};
}

void TranslationTable::save(snap::Writer& w) const {
  const_cast<TranslationTable*>(this)->io(w);
}

void TranslationTable::restore(snap::Reader& r) {
  io(r);
  // A CRC-valid section can still carry an index beyond the constructed
  // shape, or two pages placed on one machine page, which the rebuilt
  // inverse cannot name both of; refuse them here.
  if (!index_residents())
    snap::snapshot_error("translation table: two pages placed on one page");
  const std::size_t sbs = geom_.sub_blocks_per_page();
  const auto fits = [sbs](const std::vector<bool>& bits, bool active) {
    return bits.size() == sbs || (!active && bits.empty());
  };
  if (!fits(fill_bitmap_, fill_active_) ||
      !fits(shadow_filled_, shadow_active_) ||
      !fits(shadow_dirty_, shadow_active_))
    snap::snapshot_error(
        "translation table: sub-block bitmap length disagrees with the "
        "geometry");
  if ((fill_active_ && fill_slot_ >= slots_) ||
      (empty_cache_.has_value() && *empty_cache_ >= slots_))
    snap::snapshot_error("translation table: slot index out of range");
}

template <class Ar>
void TranslationTable::io(Ar& ar) {
  const PageId pages = geom_.total_pages();
  snap::section(ar, snap::tag('T', 'T', 'B', 'L'), [&] {
    snap::expect<std::uint8_t>(ar, mode_, "translation table mode");
    snap::expect<std::uint64_t>(ar, slots_, "translation table slot count");
    snap::expect<std::uint64_t>(ar, rows_.size(), "translation table rows");
    for (RowState& row : rows_) {
      snap::u64(ar, row.occupant);
      snap::b(ar, row.pending);
    }
    page_entries(ar, cam_, pages, slots_, [](PageId) { return kNoSlot; });
    page_entries(ar, placed_, pages, pages, [](PageId p) { return p; });
    bool has_empty = empty_cache_.has_value();
    SlotId empty = empty_cache_.value_or(0);
    snap::b(ar, has_empty);
    snap::u64(ar, empty);
    if constexpr (!snap::kSaving<Ar>)
      empty_cache_ = has_empty ? std::optional<SlotId>(empty) : std::nullopt;
    snap::b(ar, fill_active_);
    snap::u64(ar, fill_slot_);
    snap::u64(ar, fill_page_);
    snap::u64(ar, fill_old_base_);
    snap::bits(ar, fill_bitmap_);
    // The gated tails keep the byte layouts (and golden digests) of the
    // other modes and of RAS-less runs unchanged. A gate holds for the
    // table's whole life (the mode from construction, the RAS view from
    // before the first access), and a gated field never leaves its
    // initial value while its gate is off, so restore need not reset it.
    if (mode_ == TableMode::Shadow) {
      snap::u64(ar, hole_);
      snap::b(ar, shadow_active_);
      snap::u64(ar, shadow_page_);
      snap::u64(ar, shadow_src_);
      snap::u64(ar, shadow_dst_);
      snap::bits(ar, shadow_filled_);
      snap::bits(ar, shadow_dirty_);
    }
    // The restoring side wires the same RAS view before restore().
    if (ras_view_ != nullptr)
      snap::seq(ar, ras_parked_, [&](auto& row) { snap::u64(ar, row); });
  });
}

}  // namespace hmm
