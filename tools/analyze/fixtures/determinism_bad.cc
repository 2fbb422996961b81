// Sabotage fixture: every determinism rule must fire on this file.
// Registered as a WILL_FAIL ctest — if the checker ever goes blind,
// this test passing unexpectedly turns CI red (non-vacuity).
#include <ctime>
#include <map>
#include <random>
#include <unordered_map>

struct Stats {
  std::unordered_map<unsigned long, unsigned long> page_counts_;
  std::map<int*, int> by_ptr_;  // pointer-valued key

  unsigned long emit_sum() const {
    unsigned long out = 0;
    // Iteration order leaks straight into the emitted sequence.
    for (const auto& kv : page_counts_) out = out * 31 + kv.second;
    return out;
  }

  unsigned long stamp() const {
    return static_cast<unsigned long>(time(nullptr));  // wall clock
  }

  unsigned long roll() const {
    std::random_device rd;  // unseeded RNG
    return rd();
  }
};
