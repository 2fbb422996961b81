// Name -> factory registry for the scheme zoo.
//
// One deterministic, ordered list of scheme names; a factory that builds
// any of them from one SchemeConfig; and a structured error for unknown
// names (a SimError that lists the valid schemes, so a CLI typo in a
// bench grid fails with a usable message instead of an abort).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "fault/sim_error.hh"
#include "schemes/scheme.hh"

namespace hmm::schemes {

/// Registered scheme names, in the canonical bench order:
/// N, N-1, Live, nomad, Alloy, flat-HMA, MemCache.
[[nodiscard]] const std::vector<std::string>& scheme_names();

/// The structured unknown-name error (kind CheckFailed), naming every
/// valid scheme. Shared by make_scheme() and CLI validation so the two
/// paths can never drift apart.
[[nodiscard]] fault::SimError unknown_scheme_error(const std::string& name);

/// Throws unknown_scheme_error(name) unless `name` is registered.
void validate_scheme_name(const std::string& name);

/// Builds the named scheme. For the swap designs the controller design
/// is forced to match the name, so `cfg.controller.design` never has to
/// be kept in sync by callers; likewise "Alloy" is the MemCache scheme
/// with `cache_fraction` forced to 1.0. Throws unknown_scheme_error() on
/// a name that is not registered.
[[nodiscard]] std::unique_ptr<MemoryScheme> make_scheme(
    const std::string& name, const SchemeConfig& cfg,
    DramSystem& on_package, DramSystem& off_package);

}  // namespace hmm::schemes
