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
                                          const SchemeConfig& cfg,
                                          DramSystem& on_package,
                                          DramSystem& off_package) {
  const auto swap = [&](MigrationDesign design) {
    SchemeConfig c = cfg;
    c.controller.design = design;
    return std::make_unique<SwapScheme>(c, on_package, off_package);
  };
  if (name == "N") return swap(MigrationDesign::N);
  if (name == "N-1") return swap(MigrationDesign::NMinus1);
  if (name == "Live") return swap(MigrationDesign::LiveMigration);
  if (name == "nomad") return swap(MigrationDesign::Nomad);
  if (name == "Alloy") {
    // A pure Alloy cache is MemCache with no memory fraction.
    SchemeConfig c = cfg;
    c.cache_fraction = 1.0;
    return std::make_unique<MemCacheScheme>(name, c, on_package,
                                            off_package);
  }
  if (name == "flat-HMA")
    return std::make_unique<FlatHmaScheme>(cfg, on_package, off_package);
  if (name == "MemCache")
    return std::make_unique<MemCacheScheme>(name, cfg, on_package,
                                            off_package);
  // analyze: allow(errors): unknown_scheme_error builds a SimError
  throw unknown_scheme_error(name);
}

}  // namespace hmm::schemes
