// The physical->machine translation table of the heterogeneity-aware
// memory controller (Section III-A, Figs 6/7/9).
//
// One row per on-package slot. The left column is the row index itself;
// the right column records which macro page currently occupies that slot.
// The table is bidirectional: for page ids < N it is indexed directly
// (RAM function); for ids >= N the right column is searched (CAM function,
// modelled here, like every page map of the table, as one flat array
// indexed by page and allocated on first use).
//
// Encoding invariants of the N-1 design (proved by the swap choreography
// and checked by validate()):
//   * a page p < N that is on-package can only ever sit in slot p, so
//     row p with occupant == p means "p is on-package" (OF);
//   * swaps are pairwise, so row p with occupant == q (q >= N) means both
//     "q occupies slot p" (MF) and "p's data lives at q's home" (MS);
//   * exactly one row is marked empty; its left page is the Ghost page,
//     whose data lives at the reserved off-package page Ω;
//   * a set P (pending) bit overrides the RAM function: the row's left
//     page is translated to Ω while its relocation is in flight;
//   * a set F (filling) bit plus the sub-block bitmap route accesses to the
//     incoming page between its old home and the partially-filled slot
//     (live migration, Fig 9).
//
// Mode FunctionalN models the paper's basic N design (no empty slot, no
// P/F bits): translation is served from the explicit placement map, since
// the pairwise encoding cannot express the transient states N would need —
// the paper's N design simply halts execution during a swap instead.
//
// Mode Shadow is the transactional "nomad" variant (see DESIGN.md §10):
// translation is served from the placement map exactly like FunctionalN,
// but one machine page — the hole — is kept free of live data. A
// migration is a transaction: begin_shadow() records the page and its
// committed home, the engine streams the page into the hole while the old
// home keeps serving reads AND writes, demand writes dirty the affected
// sub-blocks (shadow_mark_dirty), and commit_shadow() atomically re-points
// the page at the hole (the old home becomes the new hole). abort_shadow()
// discards the shadow copy; the table is bit-identical to its pre-begin
// state because begin never touched the routing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "core/geometry.hh"
#include "core/ras_view.hh"

namespace hmm {

enum class TableMode : std::uint8_t { FunctionalN, HardwareNMinus1, Shadow };

/// Macro-page categories of Section III-A.
enum class PageCategory : std::uint8_t {
  OriginalFast,   ///< id < N, data in its own slot
  OriginalSlow,   ///< id >= N, data at its off-package home
  MigratedFast,   ///< id >= N, data in some on-package slot
  MigratedSlow,   ///< id < N, data at another page's off-package home
  Ghost,          ///< id < N, data at the reserved page Ω
};

struct Route {
  Region region = Region::OffPackage;
  MachAddr mach = 0;
  bool served_by_fill_slot = false;  ///< live-migration bitmap hit
};

class TranslationTable {
 public:
  TranslationTable(const Geometry& g, TableMode mode);

  [[nodiscard]] const Geometry& geometry() const noexcept { return geom_; }
  [[nodiscard]] TableMode mode() const noexcept { return mode_; }

  /// Physical -> machine translation (the controller's front stage).
  [[nodiscard]] Route translate(PhysAddr addr) const noexcept;

  [[nodiscard]] PageCategory category(PageId p) const noexcept;

  /// Machine base address of page p's current data home.
  [[nodiscard]] MachAddr location_of(PageId p) const noexcept;

  /// Page occupying slot s (kInvalidPage when the slot is empty).
  [[nodiscard]] PageId occupant(SlotId s) const noexcept;

  /// The empty slot of the N-1 design (nullopt in FunctionalN mode or in
  /// the transient window while the hot page fills the former empty slot).
  [[nodiscard]] std::optional<SlotId> empty_slot() const noexcept;

  [[nodiscard]] bool pending(SlotId s) const noexcept;
  [[nodiscard]] bool fill_active() const noexcept { return fill_active_; }
  [[nodiscard]] PageId fill_page() const noexcept { return fill_page_; }
  /// Number of sub-blocks already landed in the filling slot (0 when no
  /// fill is active). The auditor checks this never decreases mid-fill.
  [[nodiscard]] std::uint32_t fill_ready_count() const noexcept;

  // --- mutations driven by the migration engine ----------------------------
  /// Write the right column of `row` (activates the CAM entry for page).
  void set_row(SlotId row, PageId page);
  /// Mark `row` empty (its left page becomes the Ghost page).
  void set_row_empty(SlotId row);
  void set_pending(SlotId row, bool value);

  /// Live migration: page `page` starts filling `slot`; until end_fill(),
  /// unfilled sub-blocks are routed to `old_base`.
  void begin_fill(SlotId slot, PageId page, MachAddr old_base);
  void mark_sub_block(std::uint32_t index);
  [[nodiscard]] bool sub_block_ready(std::uint32_t index) const noexcept;
  void end_fill();

  /// Record that page p's data now physically lives at machine page `m`
  /// (the model's placement truth; in HardwareNMinus1 mode it is used only
  /// for validation, in FunctionalN mode it backs translation).
  void note_data_at(PageId p, PageId machine_page);

  /// FunctionalN bookkeeping: page `page` now occupies slot `s`.
  void set_occupant(SlotId s, PageId page);

  // --- Shadow mode (transactional migration) -------------------------------
  /// The machine page holding no live data (kInvalidPage outside Shadow).
  [[nodiscard]] PageId hole() const noexcept { return hole_; }
  [[nodiscard]] bool shadow_active() const noexcept { return shadow_active_; }
  /// The page under transaction (kInvalidPage when inactive).
  [[nodiscard]] PageId shadow_page() const noexcept { return shadow_page_; }
  /// The shadow copy's destination (always the hole).
  [[nodiscard]] PageId shadow_dst() const noexcept { return shadow_dst_; }
  /// OS page whose data currently lives at `machine_page` (kInvalidPage
  /// for a data-free one, e.g. the hole): one read of the inverse
  /// placement, which the first call builds.
  [[nodiscard]] PageId page_at(PageId machine_page) const;

  /// Begin a transaction: `page` will be copied into the hole. Routing is
  /// NOT changed — the committed home keeps serving until commit_shadow().
  void begin_shadow(PageId page, PageId dst_machine);
  /// Sub-block `index` of the shadow copy has landed in the hole.
  void shadow_mark_filled(std::uint32_t index);
  /// A demand write hit sub-block `index` of the page under transaction —
  /// whatever shadow copy of it exists is now stale.
  void shadow_mark_dirty(std::uint32_t index);
  /// The engine re-read sub-block `index` from the committed home.
  void shadow_clear_dirty(std::uint32_t index);
  [[nodiscard]] bool shadow_filled(std::uint32_t index) const noexcept;
  [[nodiscard]] bool shadow_dirty(std::uint32_t index) const noexcept;
  [[nodiscard]] std::uint32_t shadow_dirty_count() const noexcept;
  /// Atomically re-point the page at the hole; the old home becomes the
  /// new hole. The transactional obligation — every sub-block filled and
  /// clean — is the engine's, and is exactly what the choreography model
  /// checker proves (its CommitDespiteDirty sabotage violates it).
  void commit_shadow();
  /// Discard the transaction; the table returns to its pre-begin state.
  void abort_shadow();

  // --- RAS (page retirement) integration -----------------------------------
  /// Attach the RAS layer's frame view. Must happen before restore() when
  /// a checkpoint was taken with RAS enabled (the RAS fields of the table
  /// snapshot are gated on the view being attached, so pre-RAS byte
  /// layouts — and golden CRCs — are unchanged).
  void set_ras_view(const RasFrameView* view) noexcept { ras_view_ = view; }
  [[nodiscard]] const RasFrameView* ras_view() const noexcept {
    return ras_view_;
  }

  /// HardwareNMinus1 evacuation leaves one row permanently "parked": its
  /// P bit stays set forever, encoding that the row's left page (the
  /// ghost) keeps its data at Ω. validate() exempts parked rows from the
  /// one-transient-pending rule, and the engine never swaps them.
  void set_ras_parked(SlotId row);
  [[nodiscard]] bool ras_parked(SlotId row) const noexcept;

  /// Shadow mode: swap a retired hole for a spare frame so the hole chain
  /// continues. After a retirement evacuation commits, the failing old
  /// home becomes the hole; this re-points the hole at a data-free spare
  /// before the next transaction can stream into the failing frame.
  void relocate_hole(PageId spare);

  /// Cross-checks the hardware encoding against the placement map and the
  /// structural invariants; returns an error description or empty string.
  [[nodiscard]] std::string validate() const;

  // --- fault-injection hooks (FaultInjector / tests only) ------------------
  /// Flip the P bit of `row` without going through the swap protocol —
  /// models a transient in the translation hardware. The next audit must
  /// detect the resulting encoding/placement disagreement.
  void flip_pending_bit(SlotId row);
  /// Flip one bit of `row`'s occupant field (CAM corruption).
  void flip_occupant_bit(SlotId row, unsigned bit);

  // --- checkpoint/restore --------------------------------------------------
  // The CAM is serialized explicitly rather than rebuilt from rows_:
  // mid-choreography a page can transiently appear in two rows and only
  // the CAM records which one wins. The CAM and the placement are written
  // as (page, value) lists, pages ascending. The mode and slot count are
  // construction-time shapes: restore() refuses a checkpoint taken on a
  // different table, and an entry the arrays cannot hold.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  struct RowState {
    PageId occupant = kInvalidPage;  ///< kInvalidPage == marked empty
    bool pending = false;
  };

  template <class Ar>
  void io(Ar& ar);

  [[nodiscard]] PageId shadow_location(PageId p) const noexcept {
    return p < placed_.size() ? placed_[p] : p;
  }
  /// The CAM entry of `page` (kNoSlot: none).
  [[nodiscard]] SlotId cam_slot(PageId page) const noexcept {
    return page < cam_.size() ? cam_[page] : kNoSlot;
  }
  /// Points the CAM entry of `page` at `s`, or drops it for kNoSlot.
  void cam_set(PageId page, SlotId s);
  /// Builds resident_ from placed_; false when two placed pages share a
  /// machine page.
  bool index_residents() const;
  /// validate()'s placement checks for FunctionalN and Shadow.
  [[nodiscard]] std::string placement_error() const;

  Geometry geom_;  // no-snapshot(construction-time config)
  TableMode mode_;
  PageId slots_;  ///< N
  std::vector<RowState> rows_;
  /// Every page's machine page; empty while all sit at their homes (an
  /// N-1 table places its ghost at boot). 32-bit entries: stall-drain's
  /// 32 KiB 64-bit form, allocated mid-run, made the benchmark's next cold
  /// construction (setup_s) 50-150% slower at seed 7.
  std::vector<std::uint32_t> placed_;
  std::vector<SlotId> cam_;  ///< page -> slot (kNoSlot: none)
  static constexpr SlotId kNoSlot = ~SlotId{0};
  /// placed_ inverted (kNoPage: no page; Ω is no page's home). Kept in
  /// step by note_data_at(), which drops it while two pages share a
  /// machine page mid-exchange; rebuilt by the next page_at().
  // no-snapshot(derived from placed_; rebuilt on demand)
  mutable std::vector<std::uint32_t> resident_;
  static constexpr std::uint32_t kNoPage = ~std::uint32_t{0};

  std::optional<SlotId> empty_cache_;
  bool fill_active_ = false;
  SlotId fill_slot_ = 0;
  PageId fill_page_ = kInvalidPage;
  MachAddr fill_old_base_ = 0;
  std::vector<bool> fill_bitmap_;

  // no-snapshot(non-owned view wired by the controller each run)
  const RasFrameView* ras_view_ = nullptr;
  // Rows parked by RAS evacuation (serialized only when a RAS view is
  // attached, so pre-RAS byte layouts never change).
  std::vector<SlotId> ras_parked_;

  // Shadow-mode transactional state (serialized only when mode_ ==
  // Shadow, so the byte layouts of the other modes never change).
  PageId hole_ = kInvalidPage;
  bool shadow_active_ = false;
  PageId shadow_page_ = kInvalidPage;
  PageId shadow_src_ = kInvalidPage;
  PageId shadow_dst_ = kInvalidPage;
  std::vector<bool> shadow_filled_;
  std::vector<bool> shadow_dirty_;
};

}  // namespace hmm
