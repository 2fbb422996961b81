#include "fault/auditor.hh"

#include <string>

#include "core/translation_table.hh"

namespace hmm::fault {

void InvariantAuditor::audit() {
  ++audits_;

  const TranslationTable* t = subject_->audited_table();
  if (t != nullptr) {
    const std::string table_err = t->validate();
    if (!table_err.empty())
      throw SimError(SimErrorKind::AuditFailed,
                     "translation table: " + table_err);

    if (t->fill_active() && t->fill_page() == last_fill_page_) {
      const std::uint32_t ready = t->fill_ready_count();
      if (ready < last_fill_ready_)
        throw SimError(SimErrorKind::AuditFailed,
                       "fill bitmap lost sub-blocks mid-fill");
      last_fill_ready_ = ready;
    } else if (t->fill_active()) {
      last_fill_page_ = t->fill_page();
      last_fill_ready_ = t->fill_ready_count();
    } else {
      last_fill_page_ = kInvalidPage;
      last_fill_ready_ = 0;
    }
  }

  const std::string err = subject_->audit_check();
  if (!err.empty()) throw SimError(SimErrorKind::AuditFailed, err);

  if (extra_check_) {
    const std::string extra = extra_check_();
    if (!extra.empty()) throw SimError(SimErrorKind::AuditFailed, extra);
  }
}

}  // namespace hmm::fault
