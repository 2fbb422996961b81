#include "verify/choreography.hh"

#include <deque>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/snapshot.hh"
#include "core/translation_table.hh"
#include "dram/dram_system.hh"
#include "fault/sim_error.hh"

namespace hmm::verify {

namespace {

/// Owner sentinel for machine sub-blocks that hold no page's live data
/// (canonicalization target — see Explorer::canonicalize).
constexpr std::uint8_t kStale = 0xFF;

/// One node of the explored graph. The table is kept in its snapshot
/// encoding (deterministic: maps are serialized sorted), so the encoding
/// doubles as the dedup key component.
struct State {
  std::vector<std::uint8_t> table;
  std::vector<std::uint8_t> mem;  ///< owner page id per machine sub-block
  std::vector<CopyStep> plan;     ///< remaining steps, front = current
  std::uint32_t progress = 0;     ///< sub-blocks copied of the front step
};

void append_u32(std::string& k, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    k.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::string encode(const State& s) {
  std::string k;
  k.reserve(s.table.size() + s.mem.size() + 64 * s.plan.size() + 16);
  append_u32(k, static_cast<std::uint32_t>(s.table.size()));
  k.append(s.table.begin(), s.table.end());
  k.append(s.mem.begin(), s.mem.end());
  append_u32(k, static_cast<std::uint32_t>(s.plan.size()));
  for (const CopyStep& st : s.plan) {
    append_u32(k, static_cast<std::uint32_t>(st.src));
    append_u32(k, static_cast<std::uint32_t>(st.dst));
    append_u32(k, static_cast<std::uint32_t>(st.bytes));
    k.push_back(st.live_fill ? 1 : 0);
    append_u32(k, st.fill_slot);
    append_u32(k, static_cast<std::uint32_t>(st.fill_page));
    append_u32(k, static_cast<std::uint32_t>(st.fill_old_base));
    append_u32(k, st.start_sub_block);
    append_u32(k, static_cast<std::uint32_t>(st.after.size()));
    for (const TableMutation& m : st.after) {
      k.push_back(static_cast<char>(m.kind));
      append_u32(k, m.row);
      append_u32(k, static_cast<std::uint32_t>(m.page));
      append_u32(k, static_cast<std::uint32_t>(m.machine));
    }
  }
  append_u32(k, s.progress);
  return k;
}

class Explorer {
 public:
  explicit Explorer(const CheckerConfig& cfg)
      : cfg_(cfg),
        table_(cfg.geom, table_mode(cfg.design)),
        on_(DramSystem::make(Region::OnPackage)),
        off_(DramSystem::make(Region::OffPackage)),
        engine_(table_, on_, off_, cfg.design) {
    report_.design = cfg.design;
  }

  CheckerReport run() {
    if (!model_bounds_ok()) return report_;
    State init = initial_state();
    load_table(init);
    canonicalize(init);
    push(init);
    while (!queue_.empty() &&
           report_.violations.size() < cfg_.max_violations) {
      if (report_.states_explored >= cfg_.max_states) {
        violation("state-space cap (" + std::to_string(cfg_.max_states) +
                  ") exceeded: the exhaustiveness claim no longer holds");
        break;
      }
      State s = std::move(queue_.front());
      queue_.pop_front();
      ++report_.states_explored;
      expand(s);
    }
    finalize();
    return report_;
  }

 private:
  bool model_bounds_ok() {
    const Geometry& g = cfg_.geom;
    if (!g.valid()) {
      violation("model geometry is invalid");
      return false;
    }
    if (g.total_pages() > 64 || g.sub_blocks_per_page() > 64) {
      violation("model geometry too large for exhaustive exploration "
                "(keep it to <= 64 pages x <= 64 sub-blocks)");
      return false;
    }
    if (g.slots() < 3 && cfg_.design != MigrationDesign::Nomad) {
      // Fig 8(c)/(d) needs hot slot, cold slot and empty slot distinct.
      // Nomad has no slot choreography (the hole is the only moving
      // part), so 2 slots already reach every transactional case.
      violation("model geometry needs >= 3 on-package slots to reach "
                "every Fig-8 case");
      return false;
    }
    return true;
  }

  // --- state <-> scratch ----------------------------------------------------

  [[nodiscard]] std::vector<std::uint8_t> save_table() {
    snap::Writer w;
    table_.save(w);
    return w.take();
  }

  void load_table(const State& s) {
    snap::Reader r(s.table.data(), s.table.size());
    table_.restore(r);
  }

  State initial_state() {
    // A freshly constructed table *is* the boot state; ground truth
    // matches: identity placement, with the ghost page's data parked at Ω
    // by the boot-time driver in the N-1 designs.
    TranslationTable boot(cfg_.geom, table_.mode());
    snap::Writer w;
    boot.save(w);
    State s;
    s.table = w.take();
    s.mem.assign(total_sub_blocks(), 0);
    const std::uint32_t sb = cfg_.geom.sub_blocks_per_page();
    for (PageId p = 0; p < cfg_.geom.total_pages(); ++p)
      for (std::uint32_t b = 0; b < sb; ++b)
        s.mem[p * sb + b] = static_cast<std::uint8_t>(p);
    if (table_.mode() == TableMode::HardwareNMinus1) {
      const auto ghost = static_cast<PageId>(cfg_.geom.slots() - 1);
      for (std::uint32_t b = 0; b < sb; ++b)
        s.mem[cfg_.geom.omega() * sb + b] = static_cast<std::uint8_t>(ghost);
    }
    return s;
  }

  [[nodiscard]] std::size_t total_sub_blocks() const {
    return static_cast<std::size_t>(cfg_.geom.total_pages()) *
           cfg_.geom.sub_blocks_per_page();
  }

  [[nodiscard]] std::size_t ms_index(MachAddr a) const {
    return static_cast<std::size_t>(a / cfg_.geom.sub_block_bytes);
  }

  // --- invariant checks -----------------------------------------------------

  void violation(std::string what) {
    if (report_.violations.size() < cfg_.max_violations)
      report_.violations.push_back(std::move(what));
  }

  [[nodiscard]] std::string describe(const State& s) const {
    std::ostringstream os;
    os << "[design " << to_string(cfg_.design) << ", "
       << (s.plan.empty() ? "quiescent" : "in-flight") << ", "
       << s.plan.size() << " steps left, progress " << s.progress << "]";
    return os.str();
  }

  /// Probed pages: every OS-visible macro page. Ω is reserved by the
  /// hardware driver (Section III-A), so the OS never issues demand
  /// accesses to it and it is excluded from the demand probes.
  [[nodiscard]] PageId probe_limit() const {
    return cfg_.geom.total_pages() - 1;
  }

  /// Invariants 1-3 of the header comment; table_ must hold s's table.
  void check_state(const State& s) {
    const std::string err = table_.validate();
    if (!err.empty())
      violation("table.validate(): " + err + " " + describe(s));

    const bool stalled =
        cfg_.design == MigrationDesign::N && !s.plan.empty();
    if (stalled) {
      // The basic design holds all demand until the swap finishes — the
      // paper's documented cost. Nothing reads mid-swap, so the routing
      // probes are skipped (and counted, so a report shows the hole).
      ++report_.stall_states;
      return;
    }

    const Geometry& g = cfg_.geom;
    const std::uint32_t sb = g.sub_blocks_per_page();
    claimed_.assign(total_sub_blocks(), 0);
    for (PageId p = 0; p < probe_limit(); ++p) {
      for (std::uint32_t b = 0; b < sb; ++b) {
        ++report_.demand_checks;
        const PhysAddr addr = g.machine_base(p) + b * g.sub_block_bytes;
        const Route r = table_.translate(addr);
        if (r.mach >= g.total_bytes) {
          violation("translation escaped the machine address space " +
                    describe(s));
          return;
        }
        const std::size_t home = ms_index(r.mach);
        if (s.mem[home] != static_cast<std::uint8_t>(p)) {
          violation("page " + std::to_string(p) + " sub-block " +
                    std::to_string(b) +
                    " routed to a home that does not hold its data "
                    "(machine sub-block " +
                    std::to_string(home) + " holds " +
                    (s.mem[home] == kStale
                         ? std::string("stale bytes")
                         : "page " + std::to_string(s.mem[home])) +
                    ") " + describe(s));
          return;
        }
        if (claimed_[home] != 0) {
          violation("two pages share machine sub-block " +
                    std::to_string(home) +
                    " — a datum must have exactly one home " + describe(s));
          return;
        }
        claimed_[home] = 1;
      }
    }
  }

  // --- canonicalization -----------------------------------------------------

  /// Rewrites every *dead* mem cell to kStale. A cell is live iff some
  /// probed page currently translates to it, or a remaining plan step will
  /// still read (src) or write (dst) its machine page. Dead cells can
  /// never influence a future probe or copy, so collapsing them keeps the
  /// state space finite without losing any distinguishable behaviour.
  /// table_ must hold s's table.
  void canonicalize(State& s) {
    const Geometry& g = cfg_.geom;
    const std::uint32_t sb = g.sub_blocks_per_page();
    keep_.assign(total_sub_blocks(), 0);
    for (PageId p = 0; p < probe_limit(); ++p)
      for (std::uint32_t b = 0; b < sb; ++b) {
        const PhysAddr addr = g.machine_base(p) + b * g.sub_block_bytes;
        const Route r = table_.translate(addr);
        if (r.mach < g.total_bytes) keep_[ms_index(r.mach)] = 1;
      }
    for (const CopyStep& st : s.plan)
      for (std::uint32_t b = 0; b < sb; ++b) {
        keep_[ms_index(st.src) + b] = 1;
        keep_[ms_index(st.dst) + b] = 1;
      }
    for (std::size_t i = 0; i < s.mem.size(); ++i)
      if (keep_[i] == 0) s.mem[i] = kStale;
  }

  void push(State& s) {
    std::string key = encode(s);
    if (seen_.insert(std::move(key)).second) queue_.push_back(std::move(s));
  }

  // --- transitions ----------------------------------------------------------

  void enter_step(const CopyStep& st) {
    if (st.live_fill)
      table_.begin_fill(st.fill_slot, st.fill_page, st.fill_old_base);
    if (cfg_.sabotage == Sabotage::ApplyMutationsEarly)
      for (const TableMutation& m : st.after)
        MigrationEngine::apply_mutation(table_, m);
  }

  void apply_step_mutations(const CopyStep& st) {
    if (cfg_.sabotage == Sabotage::ApplyMutationsEarly) return;  // done
    for (const TableMutation& m : st.after) {
      if (cfg_.sabotage == Sabotage::DropClearPending &&
          m.kind == TableMutation::Kind::ClearPending)
        continue;
      MigrationEngine::apply_mutation(table_, m);
    }
  }

  void expand(const State& s) {
    load_table(s);
    try {
      check_state(s);
    } catch (const fault::SimError& e) {
      violation(std::string("invariant check threw: ") + e.what() + " " +
                describe(s));
      return;
    }
    if (s.plan.empty())
      expand_quiescent(s);
    else
      expand_in_flight(s);
  }

  void expand_quiescent(const State& s) {
    ++report_.quiescent_states;
    if (cfg_.design == MigrationDesign::Nomad) {
      expand_quiescent_nomad(s);
      return;
    }
    if (table_.mode() == TableMode::HardwareNMinus1 &&
        !table_.empty_slot().has_value()) {
      // An abort after the hot page consumed the empty slot: the N-1
      // choreography cannot start again (MigrationEngine enters degraded
      // mode). Demand is still served — check_state proved it — so this
      // is a valid terminal, not a wedge.
      ++report_.degraded_states;
      return;
    }
    const Geometry& g = cfg_.geom;
    const std::uint32_t starts =
        cfg_.design == MigrationDesign::LiveMigration
            ? g.sub_blocks_per_page()
            : 1;  // hot_sub_block only steers the live-fill rotation
    for (PageId hot = 0; hot < probe_limit(); ++hot) {
      for (SlotId cold = 0; cold < g.slots(); ++cold) {
        load_table(s);  // a prior successor left its state in the scratch
        if (!engine_.can_swap(hot, cold)) continue;
        for (std::uint32_t start = 0; start < starts; ++start) {
          ++report_.swaps_started;
          ++report_.transitions;
          try {
            load_table(s);
            State t;
            t.mem = s.mem;
            t.plan = engine_.plan_swap(hot, start, cold);
            t.progress = 0;
            enter_step(t.plan.front());
            t.table = save_table();
            canonicalize(t);
            push(t);
          } catch (const fault::SimError& e) {
            violation(std::string("start_swap transition threw: ") +
                      e.what() + " " + describe(s));
          }
        }
      }
    }
  }

  void expand_in_flight(const State& s) {
    ++report_.in_flight_states;
    if (cfg_.design == MigrationDesign::Nomad) {
      advance_nomad(s);
      if (cfg_.explore_aborts) abort_nomad(s);
      return;
    }
    advance(s);
    if (cfg_.explore_aborts) abort_swap(s);
  }

  /// Nomad `start` transitions: a transaction can begin on every page a
  /// cross-boundary move makes sense for. The begin goes through
  /// apply_mutation() like everything else, and — deliberately — changes
  /// no routing: the committed home keeps serving.
  void expand_quiescent_nomad(const State& s) {
    for (PageId p = 0; p < probe_limit(); ++p) {
      load_table(s);  // a prior successor left its state in the scratch
      if (!engine_.can_migrate(p)) continue;
      ++report_.swaps_started;
      ++report_.transitions;
      try {
        load_table(s);
        State t;
        t.mem = s.mem;
        t.plan = engine_.plan_txn(p);
        t.progress = 0;
        MigrationEngine::apply_mutation(
            table_, MigrationEngine::begin_shadow_mutation(p, table_.hole()));
        t.table = save_table();
        canonicalize(t);
        push(t);
      } catch (const fault::SimError& e) {
        violation(std::string("start_migration transition threw: ") +
                  e.what() + " " + describe(s));
      }
    }
  }

  /// Nomad transitions from an in-flight (shadow-active) state:
  ///   copy    — stream the first sub-block still unfilled or dirty into
  ///             the hole (a re-copy clears the dirty bit, exactly like
  ///             MigrationEngine's pass loop);
  ///   commit  — only once every sub-block is filled and clean (the
  ///             CommitDespiteDirty sabotage commits with dirt left);
  ///   write   — a demand write can hit any sub-block at any boundary:
  ///             it lands at the committed home, dirties the sub-block,
  ///             and stales an already-filled shadow copy.
  void advance_nomad(const State& s) {
    const std::uint32_t nsb = cfg_.geom.sub_blocks_per_page();
    const CopyStep st = s.plan.front();
    load_table(s);
    bool all_filled = true;
    bool any_dirty = false;
    std::uint32_t next = nsb;
    for (std::uint32_t b = 0; b < nsb; ++b) {
      const bool filled = table_.shadow_filled(b);
      const bool dirty = table_.shadow_dirty(b);
      all_filled = all_filled && filled;
      any_dirty = any_dirty || dirty;
      if (next == nsb && (!filled || dirty)) next = b;
    }
    const bool clean = next == nsb;
    const bool sabotaged_commit =
        cfg_.sabotage == Sabotage::CommitDespiteDirty && all_filled &&
        any_dirty;

    if (clean || sabotaged_commit) {
      ++report_.transitions;
      try {
        load_table(s);
        State t;
        t.mem = s.mem;
        t.progress = 0;
        for (const TableMutation& m : st.after)
          MigrationEngine::apply_mutation(table_, m);
        t.table = save_table();
        canonicalize(t);
        push(t);
      } catch (const fault::SimError& e) {
        violation(std::string("commit transition threw: ") + e.what() + " " +
                  describe(s));
      }
    }
    if (!clean) {
      ++report_.transitions;
      try {
        load_table(s);
        State t;
        t.mem = s.mem;
        t.plan = s.plan;
        t.progress = 0;
        t.mem[ms_index(st.dst) + next] = t.mem[ms_index(st.src) + next];
        table_.shadow_clear_dirty(next);
        table_.shadow_mark_filled(next);
        t.table = save_table();
        canonicalize(t);
        push(t);
      } catch (const fault::SimError& e) {
        violation(std::string("copy transition threw: ") + e.what() + " " +
                  describe(s));
      }
    }
    for (std::uint32_t b = 0; b < nsb; ++b) {
      load_table(s);
      if (table_.shadow_dirty(b)) continue;  // re-dirty: same state
      ++report_.transitions;
      try {
        State t;
        t.mem = s.mem;
        t.plan = s.plan;
        t.progress = 0;
        table_.shadow_mark_dirty(b);
        if (table_.shadow_filled(b))
          t.mem[ms_index(st.dst) + b] = kStale;
        t.table = save_table();
        canonicalize(t);
        push(t);
      } catch (const fault::SimError& e) {
        violation(std::string("demand-write transition threw: ") + e.what() +
                  " " + describe(s));
      }
    }
  }

  /// The transaction dies at this boundary. One AbortShadow mutation is
  /// the whole rollback: the table returns to its pre-begin state, the
  /// partially-filled hole becomes dead bytes (canonicalized away), and
  /// — unlike N-1 — nothing is ever lost, so there is no degraded
  /// terminal here.
  void abort_nomad(const State& s) {
    ++report_.aborts_injected;
    ++report_.transitions;
    try {
      load_table(s);
      State t;
      t.mem = s.mem;
      t.progress = 0;
      MigrationEngine::apply_mutation(
          table_, MigrationEngine::abort_shadow_mutation());
      t.table = save_table();
      canonicalize(t);
      push(t);
    } catch (const fault::SimError& e) {
      violation(std::string("abort transition threw: ") + e.what() + " " +
                describe(s));
    }
  }

  /// Copy the next sub-block in the engine's fill order; on step
  /// completion, apply the attached mutations exactly as
  /// MigrationEngine::finish_step() does (mutations first, then end_fill).
  void advance(const State& s) {
    ++report_.transitions;
    try {
      load_table(s);
      const CopyStep st = s.plan.front();
      const auto nsb =
          static_cast<std::uint32_t>(st.bytes / cfg_.geom.sub_block_bytes);
      const std::uint32_t idx =
          st.live_fill ? (st.start_sub_block + s.progress) % nsb
                       : s.progress;
      State t;
      t.mem = s.mem;
      t.plan = s.plan;
      t.progress = s.progress + 1;
      if (cfg_.design == MigrationDesign::N) {
        // The N plan's src/dst sequence is a *traffic* model of the
        // buffered exchange (reading a location the previous step already
        // overwrote); demand is stalled for the whole swap, so the only
        // observable data movement is the exchange committed at the end —
        // applied below from the NoteData mutations.
      } else if (cfg_.sabotage == Sabotage::MarkSubBlockEarly &&
                 st.live_fill) {
        table_.mark_sub_block(idx);  // claims it ready; data never moves
      } else {
        t.mem[ms_index(st.dst) + idx] = t.mem[ms_index(st.src) + idx];
        if (st.live_fill) table_.mark_sub_block(idx);
      }
      if (t.progress == nsb) {
        apply_step_mutations(st);
        if (cfg_.design == MigrationDesign::N) {
          const std::uint32_t sb = cfg_.geom.sub_blocks_per_page();
          for (const TableMutation& m : st.after)
            if (m.kind == TableMutation::Kind::NoteData)
              for (std::uint32_t b = 0; b < sb; ++b)
                t.mem[m.machine * sb + b] = static_cast<std::uint8_t>(m.page);
        }
        if (st.live_fill) table_.end_fill();
        t.plan.erase(t.plan.begin());
        t.progress = 0;
        if (!t.plan.empty()) enter_step(t.plan.front());
      }
      t.table = save_table();
      canonicalize(t);
      push(t);
    } catch (const fault::SimError& e) {
      violation(std::string("advance transition threw: ") + e.what() + " " +
                describe(s));
    }
  }

  /// The swap dies at this boundary. N-1/Live roll back exactly like
  /// MigrationEngine::abort_swap(): table mutations only ever apply at
  /// step completions, so discarding the unfinished remainder *is* the
  /// rollback; a still-set P bit keeps routing its left page to Ω, where
  /// that page's data genuinely lives. Design N has no recovery
  /// choreography and wedges — the documented stall.
  void abort_swap(const State& s) {
    ++report_.aborts_injected;
    ++report_.transitions;
    if (cfg_.design == MigrationDesign::N) {
      ++report_.wedge_states;  // terminal: demand can never resume
      return;
    }
    try {
      load_table(s);
      if (table_.fill_active()) table_.end_fill();
      State t;
      t.mem = s.mem;
      t.progress = 0;
      t.table = save_table();
      canonicalize(t);
      push(t);
    } catch (const fault::SimError& e) {
      violation(std::string("abort transition threw: ") + e.what() + " " +
                describe(s));
    }
  }

  void finalize() {
    if (cfg_.design == MigrationDesign::N) {
      if (cfg_.explore_aborts && report_.wedge_states == 0 &&
          report_.violations.empty())
        violation("design N never reached its documented stall — the "
                  "model lost abort coverage");
    } else if (report_.wedge_states != 0) {
      violation("a non-N design wedged " +
                std::to_string(report_.wedge_states) + " time(s)");
    }
  }

  CheckerConfig cfg_;
  TranslationTable table_;  ///< scratch, overwritten per state
  DramSystem on_;           ///< engine constructor plumbing only
  DramSystem off_;
  MigrationEngine engine_;  ///< used for can_swap()/plan_swap() only
  CheckerReport report_;
  std::deque<State> queue_;
  std::unordered_set<std::string> seen_;
  std::vector<std::uint8_t> claimed_;
  std::vector<std::uint8_t> keep_;
};

}  // namespace

CheckerReport check_choreography(const CheckerConfig& cfg) {
  return Explorer(cfg).run();
}

std::string format_report(const CheckerReport& r) {
  std::ostringstream os;
  os << "design " << to_string(r.design) << ": "
     << (r.ok() ? "PASS" : "FAIL") << "\n"
     << "  states explored    " << r.states_explored << " ("
     << r.quiescent_states << " quiescent, " << r.in_flight_states
     << " in-flight)\n"
     << "  transitions        " << r.transitions << " ("
     << r.swaps_started << " swap starts, " << r.aborts_injected
     << " aborts injected)\n"
     << "  demand probes      " << r.demand_checks << "\n";
  if (r.design == MigrationDesign::N)
    os << "  documented stalls  " << r.stall_states << " stall states, "
       << r.wedge_states << " wedge points (expected for design N)\n";
  else
    os << "  terminal outcomes  " << r.degraded_states
       << " degraded, " << r.wedge_states << " wedged (must be 0)\n";
  for (const std::string& v : r.violations) os << "  VIOLATION: " << v << "\n";
  return os.str();
}

}  // namespace hmm::verify
