// Reusable access-pattern primitives. Each pattern emits absolute byte
// addresses inside its region; workloads are weighted mixtures of patterns
// (see workloads.cc for how each paper workload is composed).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "trace/zipf.hh"

namespace hmm {

class Pattern {
 public:
  virtual ~Pattern() = default;
  /// Next address to touch.
  virtual PhysAddr next(Pcg32& rng) = 0;
  /// Phase boundary: patterns with time-varying hot sets drift here.
  virtual void on_phase(Pcg32& rng) { (void)rng; }

  /// The pattern's mutable cursor state, in checkpoint order; each word
  /// is a u64 on the wire. Stateless patterns (UniformPattern) keep the
  /// empty default. Construction-time parameters are not serialized — the
  /// restoring side rebuilds the same workload first, then overlays the
  /// cursors.
  virtual std::vector<std::uint64_t*> cursors() { return {}; }
};

/// Linear stream: start, start+stride, ... wrapping inside the region.
/// With `slab_bytes` > 0 the stream is confined to a slab-sized window
/// that advances through the region on every phase — the working-set
/// behaviour of blocked/plane-by-plane HPC kernels (FFT slabs, multigrid
/// sweeps): dense reuse inside the slab, slab rotation across phases.
class SequentialPattern final : public Pattern {
 public:
  SequentialPattern(PhysAddr base, std::uint64_t bytes,
                    std::uint64_t stride = 64, std::uint64_t slab_bytes = 0)
      : base_(base),
        bytes_(bytes),
        stride_(stride),
        slab_(slab_bytes == 0 ? bytes : std::min(slab_bytes, bytes)) {}

  PhysAddr next(Pcg32&) override {
    const PhysAddr a = base_ + slab_index_ * slab_ + cursor_;
    cursor_ += stride_;
    if (cursor_ >= slab_) cursor_ %= slab_;
    return a;
  }

  void on_phase(Pcg32&) override {
    slab_index_ = (slab_index_ + 1) % (bytes_ / slab_);
    cursor_ = 0;
  }

  std::vector<std::uint64_t*> cursors() override {
    return {&slab_index_, &cursor_};
  }

 private:
  PhysAddr base_;
  std::uint64_t bytes_;
  std::uint64_t stride_;
  std::uint64_t slab_;
  std::uint64_t slab_index_ = 0;
  std::uint64_t cursor_ = 0;
};

/// Uniform random lines over the region.
class UniformPattern final : public Pattern {
 public:
  UniformPattern(PhysAddr base, std::uint64_t bytes)
      : base_(base), lines_(bytes / 64) {}

  PhysAddr next(Pcg32& rng) override {
    return base_ + rng.bounded64(lines_) * 64;
  }

 private:
  PhysAddr base_;
  std::uint64_t lines_;
};

/// Zipf-popular granules scattered over the region by a (bijective) odd-
/// multiplier permutation, so the hot set is not address-contiguous — the
/// situation dynamic migration exists for. `drift` granules are re-seated
/// on every phase (hot-set churn).
class ZipfPattern final : public Pattern {
 public:
  ZipfPattern(PhysAddr base, std::uint64_t bytes, std::uint64_t granule,
              double s, bool scatter = true, std::uint64_t drift = 0)
      : base_(base),
        granule_(granule),
        granules_(bytes / granule),
        zipf_(granules_ ? granules_ : 1, s),
        scatter_(scatter),
        drift_(drift),
        // Salt the permutation by the region base so co-located regions
        // (e.g. per-core heaps) do not place their rank-k hot granules at
        // identical in-region offsets — real OS page allocation has no
        // such alignment either.
        offset_((base >> 12) % (granules_ ? granules_ : 1)) {}

  PhysAddr next(Pcg32& rng) override {
    const std::uint64_t rank = zipf_(rng);
    const std::uint64_t g = scatter_ ? permute(rank) : rank;
    return base_ + g * granule_ + rng.bounded64(granule_ / 64) * 64;
  }

  void on_phase(Pcg32& rng) override {
    if (drift_ == 0) return;
    // Rotate the permutation: the hottest ranks land on new granules.
    offset_ = (offset_ + drift_) % granules_;
    (void)rng;
  }

  std::vector<std::uint64_t*> cursors() override { return {&offset_}; }

 private:
  [[nodiscard]] std::uint64_t permute(std::uint64_t rank) const noexcept {
    // granules_ need not be a power of two; use mod of an odd multiplier,
    // bijective when gcd(mult, granules_) == 1 (enforced in ctor use).
    // kMult < 2^32, so below 2^32 the product fits 64 bits and the
    // 64-bit remainder equals the 128-bit one.
    const std::uint64_t r = rank + offset_;
    if (r < (1ull << 32)) return r * kMult % granules_;
    const unsigned __int128 x = static_cast<unsigned __int128>(r) * kMult;
    return static_cast<std::uint64_t>(x % granules_);
  }

  static constexpr std::uint64_t kMult = 2654435761ull;  // odd, gcd-safe

  PhysAddr base_;
  std::uint64_t granule_;
  std::uint64_t granules_;
  ZipfSampler zipf_;
  bool scatter_;
  std::uint64_t drift_;
  std::uint64_t offset_;
};

/// Random walk with short straight runs — pointer-chasing codes (mcf, UA).
class ChasePattern final : public Pattern {
 public:
  ChasePattern(PhysAddr base, std::uint64_t bytes, std::uint64_t run_mean = 4)
      : base_(base), lines_(bytes / 64), run_(static_cast<double>(run_mean)) {}

  PhysAddr next(Pcg32& rng) override {
    if (run_left_ == 0) {
      cursor_ = rng.bounded64(lines_);
      run_left_ = run_(rng);
    }
    const PhysAddr a = base_ + cursor_ * 64;
    cursor_ = (cursor_ + 1) % lines_;
    --run_left_;
    return a;
  }

  std::vector<std::uint64_t*> cursors() override {
    return {&cursor_, &run_left_};
  }

 private:
  PhysAddr base_;
  std::uint64_t lines_;
  Geometric run_;  ///< run length, mean `run_mean`
  std::uint64_t cursor_ = 0;
  std::uint64_t run_left_ = 0;
};

/// Strided sweep with per-phase stride changes (FFT transposes). Supports
/// the same slab confinement as SequentialPattern: the sweep covers one
/// slab per phase, rotating through the region.
class StridedPattern final : public Pattern {
 public:
  StridedPattern(PhysAddr base, std::uint64_t bytes, std::uint64_t min_stride,
                 std::uint64_t max_stride, std::uint64_t slab_bytes = 0)
      : base_(base),
        bytes_(bytes),
        min_stride_(min_stride),
        max_stride_(max_stride),
        slab_(slab_bytes == 0 ? bytes : std::min(slab_bytes, bytes)),
        stride_(min_stride) {}

  PhysAddr next(Pcg32&) override {
    const PhysAddr a = base_ + slab_index_ * slab_ + cursor_;
    cursor_ += stride_;
    if (cursor_ >= slab_) cursor_ = (cursor_ + 64) % slab_;
    return a;
  }

  void on_phase(Pcg32& rng) override {
    // Pick a new power-of-two stride in [min, max] and move to the next
    // slab (the next FFT dimension / plane).
    std::uint64_t s = min_stride_;
    const unsigned span = log2_floor(max_stride_ / min_stride_) + 1;
    s <<= rng.bounded(span);
    stride_ = s;
    slab_index_ = (slab_index_ + 1) % (bytes_ / slab_);
    cursor_ = 0;
  }

  std::vector<std::uint64_t*> cursors() override {
    return {&stride_, &slab_index_, &cursor_};
  }

 private:
  PhysAddr base_;
  std::uint64_t bytes_;
  std::uint64_t min_stride_;
  std::uint64_t max_stride_;
  std::uint64_t slab_;
  std::uint64_t stride_;
  std::uint64_t slab_index_ = 0;
  std::uint64_t cursor_ = 0;
};

}  // namespace hmm
