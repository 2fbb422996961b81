#include "schemes/registry.hh"

#include "schemes/flat_hma.hh"
#include "schemes/memcache.hh"
#include "schemes/swap_scheme.hh"

namespace hmm::schemes {

const std::vector<std::string>& scheme_names() {
  static const std::vector<std::string> names = {
      "N", "N-1", "Live", "nomad", "Alloy", "flat-HMA", "MemCache"};
  return names;
}

fault::SimError unknown_scheme_error(const std::string& name) {
  std::string valid;
  for (const std::string& n : scheme_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  return fault::SimError(fault::SimErrorKind::CheckFailed,
                         "unknown memory scheme '" + name +
                             "' (valid schemes: " + valid + ")");
}

void validate_scheme_name(const std::string& name) {
  for (const std::string& n : scheme_names())
    if (n == name) return;
  // analyze: allow(errors): unknown_scheme_error builds a SimError
  throw unknown_scheme_error(name);
}

std::unique_ptr<MemoryScheme> make_scheme(const std::string& name,
                                          const ControllerConfig& cfg,
                                          double cache_fraction,
                                          DramSystem& on_package,
                                          DramSystem& off_package) {
  for (const MigrationDesign d :
       {MigrationDesign::N, MigrationDesign::NMinus1,
        MigrationDesign::LiveMigration, MigrationDesign::Nomad})
    if (name == to_string(d))
      return std::make_unique<SwapScheme>(d, cfg, on_package, off_package);
  // A pure Alloy cache is MemCache with no memory fraction.
  if (name == "Alloy" || name == "MemCache")
    return std::make_unique<MemCacheScheme>(
        name, cfg, name == "Alloy" ? 1.0 : cache_fraction, on_package,
        off_package);
  if (name == "flat-HMA")
    return std::make_unique<FlatHmaScheme>(cfg, on_package, off_package);
  // analyze: allow(errors): unknown_scheme_error builds a SimError
  throw unknown_scheme_error(name);
}

}  // namespace hmm::schemes
