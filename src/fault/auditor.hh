// Periodic invariant audit (the deep end of TranslationTable::validate()).
//
// MemSim calls on_access() once per demand access; every `interval`
// accesses the auditor validates the subject's translation table, if it
// has one (bidirectional RAM/CAM consistency, P/F-bit protocol legality,
// encoding-vs-placement agreement), checks fill-bitmap monotonicity
// against the previous observation, and runs the subject's own
// self-checks (e.g. the swap scheme's hotness trackers). Any violation
// throws SimError(AuditFailed) — injected corruption surfaces as a
// structured, attributable error instead of a silently wrong run.
//
// Checks whose cost grows with the whole state (MemCache's tag recount,
// MemSim's RAS route sweep) roll: each periodic audit covers one
// AuditWindow, a sixteenth of that state, and AuditWindow::kWindows
// consecutive audits cover all of it. The round is the audit count
// modulo kWindows, so a restored run resumes the same rotation. Every
// other check runs in full on every audit. full_audit() checks every
// window at once without counting an audit; MemSim runs it from finish()
// whenever auditing is on, so a corruption is reported within
// kWindows × interval accesses or by the end of the run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/snapshot.hh"
#include "common/types.hh"
#include "fault/sim_error.hh"

namespace hmm {
class TranslationTable;
}  // namespace hmm

namespace hmm::fault {

/// The share of the whole-state checks one audit covers.
struct AuditWindow {
  /// Periodic audits that together cover the whole state.
  static constexpr std::uint64_t kWindows = 16;

  std::uint64_t round = 0;  ///< in [0, kWindows); ignored when `full`
  bool full = false;        ///< every window at once

  [[nodiscard]] static constexpr AuditWindow all() noexcept {
    return {.round = 0, .full = true};
  }

  /// Items [first, end) of `n` (pages, tag blocks) this audit covers:
  /// contiguous, and the kWindows rounds tile [0, n) exactly.
  struct Slice {
    std::uint64_t first = 0;
    std::uint64_t end = 0;
  };
  [[nodiscard]] constexpr Slice slice(std::uint64_t n) const noexcept {
    if (full) return {0, n};
    return {n * round / kWindows, n * (round + 1) / kWindows};
  }
};

/// What the auditor needs from any subject it sweeps: an optional
/// translation table (validated + fill-bitmap-checked when present) and a
/// subject-internal invariant sweep. MemoryScheme implementations derive
/// from this so one auditor serves every scheme in the zoo.
class Auditable {
 public:
  virtual ~Auditable() = default;
  /// The translation table to validate, or nullptr when the subject has
  /// none (cache-style schemes keep tags, not a P2M table).
  [[nodiscard]] virtual const TranslationTable* audited_table()
      const noexcept = 0;
  /// Subject-internal invariant sweep; error description or empty string.
  /// A check whose cost grows with the whole state covers only
  /// `window`'s share of it; every other check runs in full.
  [[nodiscard]] virtual std::string audit_check(
      const AuditWindow& window) const = 0;
};

class InvariantAuditor {
 public:
  /// Audits whatever table/state `subject` exposes. `subject` is not
  /// owned and must outlive the auditor. `interval` == 0 disables the
  /// periodic audit entirely (audit() can still be called directly).
  InvariantAuditor(const Auditable* subject, std::uint64_t interval)
      : subject_(subject), interval_(interval) {}

  /// Fast path: counts the access, audits when the interval elapses.
  void on_access() {
    if (interval_ == 0) return;
    if (++since_audit_ >= interval_) {
      since_audit_ = 0;
      audit();
    }
  }

  /// One counted audit over the next window; throws
  /// SimError(AuditFailed) on any violation.
  void audit();

  /// Every window at once, not counted in audits() and touching no
  /// serialized state (so a passing run's outputs are unchanged); throws
  /// like audit().
  void full_audit();

  /// The window of the audit in progress (or of the latest one), for
  /// the extra check to read.
  [[nodiscard]] const AuditWindow& window() const noexcept {
    return window_;
  }

  /// Optional extra invariant run on every audit (e.g. MemSim's RAS
  /// retired-route sweep, which reads window()). Returns an error
  /// description or empty string.
  void set_extra_check(std::function<std::string()> check) {
    extra_check_ = std::move(check);
  }

  [[nodiscard]] std::uint64_t audits() const noexcept { return audits_; }

  void save(snap::Writer& w) const {
    const_cast<InvariantAuditor*>(this)->io(w);
  }
  void restore(snap::Reader& r) { io(r); }

 private:
  template <class Ar>
  void io(Ar& ar) {
    snap::section(ar, snap::tag('A', 'U', 'D', 'T'), [&] {
      snap::u64(ar, since_audit_);
      snap::u64(ar, audits_);
      snap::u64(ar, last_fill_page_);
      snap::u32(ar, last_fill_ready_);
    });
  }

  /// Runs every check over window_; a counted audit also records the
  /// fill observation the next one compares against.
  void check(bool counted);

  const Auditable* subject_;  ///< not owned
  // no-snapshot(re-attached by the owner after restore)
  std::function<std::string()> extra_check_;
  std::uint64_t interval_;  // no-snapshot(construction-time config)
  std::uint64_t since_audit_ = 0;
  std::uint64_t audits_ = 0;
  // no-snapshot(derived from audits_ when each audit starts)
  AuditWindow window_;
  // Fill-bitmap monotonicity: within one fill of the same page, the number
  // of landed sub-blocks must never decrease.
  PageId last_fill_page_ = kInvalidPage;
  std::uint32_t last_fill_ready_ = 0;
};

}  // namespace hmm::fault
