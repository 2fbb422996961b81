// Name -> factory registry for the scheme zoo.
//
// One deterministic, ordered list of scheme names; a factory that builds
// any of them from the name alone plus the controller config; and a
// structured error for unknown names (a SimError that lists the valid
// schemes, so a CLI typo in a bench grid fails with a usable message
// instead of an abort). The name is the only design selector.
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

/// Builds the named scheme. A swap name ("N", "N-1", "Live", "nomad")
/// picks the MigrationDesign its SwapScheme runs; "MemCache" partitions
/// on-package memory by `cache_fraction`, and "Alloy" is MemCache built
/// with 1.0 whatever `cache_fraction` says. Throws unknown_scheme_error()
/// on a name that is not registered.
[[nodiscard]] std::unique_ptr<MemoryScheme> make_scheme(
    const std::string& name, const ControllerConfig& cfg,
    double cache_fraction, DramSystem& on_package, DramSystem& off_package);

}  // namespace hmm::schemes
