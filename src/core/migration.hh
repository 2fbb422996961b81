// The migration controller's data-movement engine (Section III).
//
// A swap is planned as a short sequence of page copies; each copy streams
// through the DRAM channel models as Background-priority chunk requests
// (one chunk in flight: read from the source region, then write to the
// destination region), so migration bandwidth is stolen from real bus gaps
// and demand traffic sees genuine interference.
//
// Translation-table mutations are attached to step completions, exactly as
// the paper's choreography requires (Fig 8(a)-(d)): the data being moved
// always has one valid physical home, so execution never halts in the
// N-1 designs. The plan built for the paper's Fig 8(d) worked example
// reproduces its 10 steps one-for-one (see tests/migration_plan_test.cc).
//
// Designs:
//   N              — basic: table updated only after the whole swap; the
//                    controller must stall demand until the swap finishes.
//   NMinus1        — empty slot + P bit; background copy, old home serves
//                    the hot page until its copy lands.
//   LiveMigration  — N-1 plus F bit and a sub-block bitmap; the hot page
//                    is served from the partially-filled slot, and the copy
//                    starts at the critical (most recently used) sub-block.
//   Nomad          — transactional migration (DESIGN.md §10): a page is
//                    streamed into the free "hole" page while its old home
//                    keeps serving reads AND writes; demand writes dirty
//                    the affected sub-blocks, dirty sub-blocks are
//                    re-copied in bounded extra passes, and the migration
//                    ends in a single atomic commit (or a clean abort that
//                    leaves the table bit-identical to its pre-begin
//                    state). No fault site can wedge this design.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/types.hh"
#include "core/translation_table.hh"
#include "dram/dram_system.hh"
#include "fault/fault_injector.hh"

namespace hmm {

enum class MigrationDesign : std::uint8_t { N, NMinus1, LiveMigration, Nomad };

[[nodiscard]] constexpr const char* to_string(MigrationDesign d) noexcept {
  switch (d) {
    case MigrationDesign::N: return "N";
    case MigrationDesign::NMinus1: return "N-1";
    case MigrationDesign::LiveMigration: return "Live";
    case MigrationDesign::Nomad: return "nomad";
  }
  return "?";
}

/// The translation-table mode a design's choreography runs on: N keeps
/// the functional placement map, nomad the shadow transaction, and
/// N-1/Live the hardware table with its empty slot and P/F bits.
[[nodiscard]] constexpr TableMode table_mode(MigrationDesign d) noexcept {
  switch (d) {
    case MigrationDesign::N: return TableMode::FunctionalN;
    case MigrationDesign::NMinus1:
    case MigrationDesign::LiveMigration: return TableMode::HardwareNMinus1;
    case MigrationDesign::Nomad: return TableMode::Shadow;
  }
  return TableMode::HardwareNMinus1;
}

/// One table mutation, applied when the owning copy step completes.
struct TableMutation {
  enum class Kind : std::uint8_t {
    SetRow,        ///< row = `row`, occupant = `page`
    SetRowEmpty,   ///< row = `row`
    SetPending,    ///< row = `row`
    ClearPending,  ///< row = `row`
    NoteData,      ///< page `page` now lives at machine page `machine`
    SetOccupant,   ///< FunctionalN bookkeeping
    BeginShadow,   ///< open a transaction: `page` -> hole (`machine`)
    CommitShadow,  ///< atomically re-point the page at the hole
    AbortShadow,   ///< discard the transaction (pre-begin table state)
    RasPark,       ///< N-1 retirement: row = `row` pends forever (RAS)
    // RasPark stays last: restore refuses any later value.
  };
  Kind kind;
  SlotId row = 0;
  PageId page = kInvalidPage;
  PageId machine = kInvalidPage;
};

/// One streamed page copy inside a swap plan.
struct CopyStep {
  MachAddr src = 0;
  MachAddr dst = 0;
  std::uint64_t bytes = 0;
  bool live_fill = false;        ///< route through F bit + bitmap
  SlotId fill_slot = 0;          ///< destination slot when live_fill
  PageId fill_page = kInvalidPage;
  MachAddr fill_old_base = 0;    ///< where unfilled sub-blocks are served
  std::uint32_t start_sub_block = 0;  ///< critical-data-first start
  std::vector<TableMutation> after;
};

class MigrationEngine {
 public:
  /// Copy chunks kept in flight: pipelines the read and write sides so
  /// the copy runs at the slower channel's full rate (the paper's
  /// 374us-per-4MB figure assumes exactly that).
  static constexpr unsigned kCopyWindow = 4;
  /// Recovery policy under fault injection: a failed chunk is re-streamed
  /// up to this many times (exponential backoff) before the swap gives up.
  static constexpr unsigned kMaxChunkRetries = 3;
  static constexpr Cycle kRetryBackoff = 256;  ///< first retry; doubles
  /// Re-stream delay of a MigrationChunkDelay fault.
  static constexpr Cycle kChunkDelayCycles = 400;
  /// After this many consecutive aborted swaps the engine freezes the
  /// table at its current (valid) mapping and stops migrating.
  static constexpr unsigned kDegradeAfterAborts = 3;
  /// Nomad: total copy passes allowed per transaction (pass 0 streams the
  /// whole page; each later pass re-copies only the sub-blocks that demand
  /// writes dirtied). Exhausting the budget aborts the txn.
  static constexpr unsigned kMaxCopyPasses = 4;

  struct Stats {
    std::uint64_t swaps_started = 0;
    std::uint64_t swaps_completed = 0;
    std::uint64_t bytes_copied = 0;
    std::uint64_t table_updates = 0;
    Cycle busy_cycles = 0;  ///< summed wall-clock of active swaps
    // Fault-injection outcomes (all zero when no injector is attached).
    std::uint64_t chunks_dropped = 0;
    std::uint64_t chunks_delayed = 0;
    std::uint64_t chunk_retries = 0;
    std::uint64_t swaps_aborted = 0;
    std::uint64_t swaps_wedged = 0;
  };

  MigrationEngine(TranslationTable& table, DramSystem& on_package,
                  DramSystem& off_package, MigrationDesign design);

  [[nodiscard]] bool idle() const noexcept { return steps_.empty(); }
  [[nodiscard]] MigrationDesign design() const noexcept { return design_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Attach a fault injector (nullptr detaches). Not owned.
  void set_fault_injector(fault::FaultInjector* inj) noexcept {
    injector_ = inj;
  }
  /// A wedged engine holds an unfinished swap it can never complete (the
  /// basic N design has no recovery choreography); the MemSim watchdog
  /// turns this into a structured SimError instead of a hang.
  [[nodiscard]] bool wedged() const noexcept { return wedged_; }
  /// Degraded mode: the table is frozen at its current valid mapping and
  /// no further swaps start; demand traffic keeps being served.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  [[nodiscard]] Cycle degraded_at() const noexcept { return degraded_at_; }
  /// Copy chunks currently streaming (0 for a wedged or idle engine).
  [[nodiscard]] std::size_t in_flight_chunks() const noexcept {
    return inflight_.size();
  }

  /// Instant mode: swaps apply their table mutations immediately with no
  /// copy traffic — used to fast-forward a warm-up phase to the placement
  /// steady state that the paper's trillion-reference traces reach (see
  /// EXPERIMENTS.md "warm-up methodology"). Never use while measuring.
  void set_instant(bool on) noexcept { instant_ = on; }
  [[nodiscard]] bool instant() const noexcept { return instant_; }

  /// True if (hot, cold_slot) is a swap this engine can start now.
  [[nodiscard]] bool can_swap(PageId hot, SlotId cold_slot) const noexcept;
  /// The checks of can_swap() that do not depend on the cold slot: the
  /// engine is idle and healthy, and `hot` is a swappable off-package
  /// page. When false, can_swap(hot, s) is false for every slot s.
  [[nodiscard]] bool can_swap_hot(PageId hot) const noexcept;

  /// Plan and begin the hottest-coldest swap. A live fill starts at
  /// `hot_sub_block` (critical data first). Returns false if busy or the
  /// pair is invalid.
  bool start_swap(PageId hot, std::uint32_t hot_sub_block, SlotId cold_slot,
                  Cycle now);

  // --- Nomad (transactional migration) -------------------------------------
  /// True if migrating `page` into the hole is possible now (Nomad only;
  /// the move must cross the package boundary to be worth anything).
  [[nodiscard]] bool can_migrate(PageId page) const noexcept;
  /// Begin a transaction moving `page` into the hole. Returns false if
  /// can_migrate() says no.
  bool start_migration(PageId page, Cycle now);
  /// Transaction plan exposed for the checker/tests: one full-page copy
  /// step whose completion mutation is the atomic commit.
  [[nodiscard]] std::vector<CopyStep> plan_txn(PageId page) const;
  [[nodiscard]] static TableMutation begin_shadow_mutation(
      PageId page, PageId dst_machine) noexcept {
    return {TableMutation::Kind::BeginShadow, 0, page, dst_machine};
  }
  [[nodiscard]] static TableMutation commit_shadow_mutation() noexcept {
    return {TableMutation::Kind::CommitShadow, 0, kInvalidPage, kInvalidPage};
  }
  [[nodiscard]] static TableMutation abort_shadow_mutation() noexcept {
    return {TableMutation::Kind::AbortShadow, 0, kInvalidPage, kInvalidPage};
  }

  // --- RAS page retirement (see DESIGN.md §11) -----------------------------
  /// True if the occupant of `frame` can be moved off through this
  /// design's own machinery right now. False for data-free frames (retire
  /// them directly) and for placements the N-1 pairwise encoding cannot
  /// express (the caller pins those instead).
  [[nodiscard]] bool can_evacuate(PageId frame) const noexcept;
  /// Move the occupant of `frame` off it: design N bulk-copies it to
  /// `spare`; N-1/Live copy it into the empty slot and park that row's P
  /// bit forever (consuming the empty slot — the encoding's only free
  /// landing zone — so at most one N-1 retirement is absorbed); nomad
  /// runs a normal shadow transaction into the hole (`spare` unused, the
  /// caller relocates the hole afterwards). Returns false when
  /// can_evacuate() says no.
  bool start_evacuation(PageId frame, PageId spare, Cycle now);
  /// True if any remaining copy step of the in-flight swap reads or
  /// writes a machine frame `touched(frame)` accepts.
  template <class Pred>
  [[nodiscard]] bool plan_touches(Pred touched) const {
    const Geometry& g = table_.geometry();
    for (const CopyStep& st : steps_)
      if (touched(g.page_of(st.src)) || touched(g.page_of(st.dst)))
        return true;
    return false;
  }
  /// RAS-initiated abort of the in-flight swap (a frame it touches was
  /// flagged as failing): rolls back to the last valid step boundary.
  /// Deliberate, so it never wedges design N (the rollback is trivially
  /// valid — N applies all its mutations in the final step). Returns
  /// false when idle or wedged.
  bool abort_current(Cycle now);

  /// Feed every Background completion from either region back here.
  void on_completion(const DramCompletion& c, Region from);

  /// Plan builder exposed for unit tests (pure; does not mutate anything).
  [[nodiscard]] std::vector<CopyStep> plan_swap(PageId hot,
                                                std::uint32_t hot_sub_block,
                                                SlotId cold_slot) const;

  /// Applies one table mutation to `table` — the single definition of what
  /// each TableMutation kind means, shared between the live engine and the
  /// choreography model checker (src/verify/) so the checker can never
  /// silently diverge from the semantics it is meant to prove.
  static void apply_mutation(TranslationTable& table, const TableMutation& m);

  // --- checkpoint/restore --------------------------------------------------
  // Serializes the full mid-swap state (remaining steps with their pending
  // table mutations, chunk bookkeeping, in-flight chunk keys, retry
  // counters). Request-id keys stay valid across restore because the DRAM
  // systems serialize their id counters alongside.
  void save(snap::Writer& w) const;
  void restore(snap::Reader& r);

 private:
  struct InFlightChunk {
    std::uint64_t chunk = 0;
    bool write_phase = false;
  };

  template <class Ar>
  void io(Ar& ar);

  [[nodiscard]] std::uint64_t chunk_size() const noexcept;
  /// Installs `plan` and starts it: instant mode applies every mutation at
  /// once, otherwise the first step begins streaming.
  bool launch(std::vector<CopyStep> plan, Cycle now);
  /// Nomad: open a transaction moving `page` into the hole.
  bool launch_txn(PageId page, Cycle now);
  void begin_step(Cycle at);
  /// Nomad: stream the given chunk byte offsets as one copy pass.
  void begin_pass(std::vector<std::uint64_t> offsets, Cycle at);
  /// Resets the chunk counters for a copy of `chunks` chunks starting at
  /// rotation index `first`, and fills the copy window.
  void stream(std::uint64_t chunks, std::uint64_t first, Cycle at);
  /// Nomad: pass done — commit if clean, re-copy dirty/unfilled
  /// sub-blocks, or abort when the pass budget is exhausted.
  void finish_pass(Cycle at);
  void submit_read(std::uint64_t chunk, Cycle at);
  void submit_write(std::uint64_t chunk, Cycle at);
  void finish_step(Cycle at);
  /// The whole plan has been applied (streamed or instant).
  void finish_swap(Cycle at);
  void apply(const TableMutation& m);
  void resubmit(const InFlightChunk& fc, Cycle at);
  void handle_chunk_failure(const InFlightChunk& fc, Cycle at);
  /// Discards the unfinished plan, rolling the table back to the last
  /// step boundary (nomad: to its pre-begin state).
  void drop_plan(Cycle at);
  void abort_swap(Cycle at);
  void wedge();
  void enter_degraded(Cycle at);
  /// N-1/Live: the encoding's only free landing zone, the empty slot, is
  /// gone (parked by a retirement or claimed by an aborted swap).
  [[nodiscard]] bool landing_zone_lost() const noexcept;
  /// Chunk index (in fill order) -> byte offset within the page.
  [[nodiscard]] std::uint64_t chunk_offset(std::uint64_t k) const noexcept;
  [[nodiscard]] static std::uint64_t key(Region r, RequestId id) noexcept {
    return (r == Region::OnPackage ? (1ull << 63) : 0) | id;
  }

  TranslationTable& table_;
  DramSystem& on_;
  DramSystem& off_;
  MigrationDesign design_;  // no-snapshot(construction-time config)
  Stats stats_;

  std::vector<CopyStep> steps_;  ///< remaining steps, front = current
  /// Nomad: byte offsets streamed by the current pass (empty for the
  /// other designs, which walk chunk_offset()'s rotation instead).
  std::vector<std::uint64_t> pass_offsets_;
  unsigned pass_ = 0;  ///< Nomad: current copy pass index
  std::uint64_t chunks_total_ = 0;
  std::uint64_t next_chunk_ = 0;       ///< next chunk to start reading
  std::uint64_t chunks_completed_ = 0;
  std::uint64_t first_chunk_ = 0;  ///< rotation start (critical-first)
  /// At most kCopyWindow chunks, keyed by key(region, request id).
  FlatMap<std::uint64_t, InFlightChunk> inflight_;
  Cycle swap_began_ = 0;
  bool instant_ = false;

  fault::FaultInjector* injector_ = nullptr;  ///< not owned; may be null
  FlatMap<std::uint64_t, unsigned> retry_count_;  ///< per chunk phase
  unsigned consecutive_aborts_ = 0;
  bool wedged_ = false;
  bool degraded_ = false;
  Cycle degraded_at_ = 0;
};

}  // namespace hmm
