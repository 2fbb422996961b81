#include "fault/auditor.hh"

#include <string>

#include "core/translation_table.hh"

namespace hmm::fault {

void InvariantAuditor::audit() {
  window_ = {.round = audits_ % AuditWindow::kWindows, .full = false};
  ++audits_;
  check(/*counted=*/true);
}

void InvariantAuditor::full_audit() {
  window_ = AuditWindow::all();
  check(/*counted=*/false);
}

void InvariantAuditor::check(bool counted) {
  const TranslationTable* t = subject_->audited_table();
  if (t != nullptr) {
    const std::string table_err = t->validate();
    if (!table_err.empty())
      throw SimError(SimErrorKind::AuditFailed,
                     "translation table: " + table_err);

    const bool active = t->fill_active();
    if (active && t->fill_page() == last_fill_page_ &&
        t->fill_ready_count() < last_fill_ready_)
      throw SimError(SimErrorKind::AuditFailed,
                     "fill bitmap lost sub-blocks mid-fill");
    if (counted) {
      last_fill_page_ = active ? t->fill_page() : kInvalidPage;
      last_fill_ready_ = active ? t->fill_ready_count() : 0;
    }
  }

  const std::string err = subject_->audit_check(window_);
  if (!err.empty()) throw SimError(SimErrorKind::AuditFailed, err);

  if (extra_check_) {
    const std::string extra = extra_check_();
    if (!extra.empty()) throw SimError(SimErrorKind::AuditFailed, extra);
  }
}

}  // namespace hmm::fault
