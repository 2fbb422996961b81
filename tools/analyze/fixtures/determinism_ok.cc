// Companion fixture: the same constructs as determinism_bad.cc, each
// either rewritten the approved way or carrying an annotated
// suppression — the self-test proves allow(determinism) suppresses.
#include <algorithm>
#include <ctime>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

struct Stats {
  std::unordered_map<unsigned long, unsigned long> page_counts_;

  unsigned long emit_sum() const {
    std::vector<std::pair<unsigned long, unsigned long>> v(
        page_counts_.begin(), page_counts_.end());
    std::sort(v.begin(), v.end());
    unsigned long out = 0;
    for (const auto& kv : v) out = out * 31 + kv.second;
    return out;
  }

  unsigned long min_key() const {
    unsigned long best = ~0ul;
    // analyze: allow(determinism): min-scan, total order on keys
    for (const auto& kv : page_counts_)
      if (kv.first < best) best = kv.first;
    return best;
  }

  unsigned long stamp() const {
    // analyze: allow(determinism): fixture watchdog, not sim output
    return static_cast<unsigned long>(time(nullptr));
  }

  unsigned long roll() const {
    // analyze: allow(determinism): fixture seed source, not sim output
    std::random_device rd;
    return rd();
  }
};
