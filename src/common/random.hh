// Deterministic, fast pseudo-random number generation for workload synthesis.
//
// PCG32 (O'Neill, 2014): small state, excellent statistical quality, and —
// crucially for a simulator — fully reproducible across platforms, unlike
// the unspecified std::default_random_engine.
#pragma once

#include "fault/sim_error.hh"
#include <cmath>
#include <cstdint>

namespace hmm {

class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bull,
                 std::uint64_t stream = 0xda3e39cb94b95bdbull) noexcept {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    next();
    state_ += seed;
    next();
  }

  /// Uniform 32-bit value.
  std::uint32_t next() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ull + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform 64-bit value.
  std::uint64_t next64() noexcept {
    return (static_cast<std::uint64_t>(next()) << 32) | next();
  }

  /// Uniform in [0, bound), bound > 0. Lemire-style rejection for no bias.
  std::uint32_t bounded(std::uint32_t bound) {
    HMM_CHECK(bound > 0, "Pcg32::bounded requires bound > 0");
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform in [0, bound), 64-bit bound > 0.
  std::uint64_t bounded64(std::uint64_t bound) {
    HMM_CHECK(bound > 0, "Pcg32::bounded64 requires bound > 0");
    if (bound <= 1) return 0;
    // A power-of-two bound rejects nothing (its threshold is 0), so the
    // first draw, masked, is what the loop below would return.
    if ((bound & (bound - 1)) == 0) return next64() & (bound - 1);
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint64_t r = next64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1), 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Geometric-ish positive integer with mean `mean` (>=1).
  std::uint64_t geometric(double mean) noexcept;

  /// Raw generator state, for checkpoint/restore. Restoring Raw resumes
  /// the stream exactly where it was captured.
  struct Raw {
    std::uint64_t state;
    std::uint64_t inc;
  };
  [[nodiscard]] Raw raw() const noexcept { return {state_, inc_}; }
  void set_raw(Raw r) noexcept {
    state_ = r.state;
    inc_ = r.inc;
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Pcg32::geometric(mean) for a mean fixed up front: log(1 - 1/mean) is
/// taken once, and every draw is the one geometric(mean) would make.
class Geometric {
 public:
  explicit Geometric(double mean) noexcept
      : one_(mean <= 1.0), log_q_(one_ ? 0.0 : std::log(1.0 - 1.0 / mean)) {}

  std::uint64_t operator()(Pcg32& rng) const noexcept {
    if (one_) return 1;
    double u = rng.uniform();
    if (u <= 0.0) u = 1e-12;
    return 1 + static_cast<std::uint64_t>(std::log(u) / log_q_);
  }

 private:
  bool one_;      ///< mean <= 1: always 1, no draw
  double log_q_;  ///< log(1 - 1/mean)
};

inline std::uint64_t Pcg32::geometric(double mean) noexcept {
  return Geometric(mean)(*this);
}

}  // namespace hmm
