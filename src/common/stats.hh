// Lightweight statistics: counters, running means, and log-scale histograms.
//
// Every simulator component exposes its behaviour through these, and the
// bench harnesses read them back to print the paper's tables.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace hmm {

/// Streaming mean/min/max over a sequence of samples (no storage).
class RunningStat {
 public:
  void add(double x, std::uint64_t weight = 1) noexcept {
    count_ += weight;
    sum_ += x * static_cast<double>(weight);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  void merge(const RunningStat& o) noexcept {
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  void reset() noexcept { *this = RunningStat{}; }

  /// Raw accumulator state for checkpoint/restore. min_/max_ sentinels are
  /// preserved verbatim so a restored stat is bit-identical, not merely
  /// equal under the count_==0 accessor masking.
  struct Raw {
    std::uint64_t count;
    double sum, min, max;
  };
  [[nodiscard]] Raw raw() const noexcept { return {count_, sum_, min_, max_}; }
  void set_raw(const Raw& r) noexcept {
    count_ = r.count;
    sum_ = r.sum;
    min_ = r.min;
    max_ = r.max;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 1e308;
  double max_ = -1e308;
};

/// Power-of-two-bucketed histogram for latency/queue-depth distributions.
class Log2Histogram {
 public:
  /// Bucket i counts values in [2^i, 2^(i+1)); bucket 0 also counts 0,
  /// and the last bucket everything above its lower edge.
  void add(std::uint64_t value) noexcept {
    const auto b = std::min<unsigned>(
        static_cast<unsigned>(std::bit_width(value | 1)) - 1, kBuckets - 1);
    ++buckets_[b];
    ++total_;
  }

  /// Bucket-wise sum with another histogram (parallel result aggregation:
  /// per-job histograms combine into one distribution, order-independent).
  void merge(const Log2Histogram& o) noexcept {
    for (unsigned i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    total_ += o.total_;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t bucket(unsigned i) const noexcept {
    return i < kBuckets ? buckets_[i] : 0;
  }

  /// Inclusive value at the given quantile q in [0,1], bucket-resolution.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (total_ == 0) return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > target) return 1ull << i;
    }
    return 1ull << (kBuckets - 1);
  }

  void reset() noexcept {
    buckets_.assign(kBuckets, 0);
    total_ = 0;
  }

  /// Checkpoint/restore access to the raw bucket counts.
  void set_bucket(unsigned i, std::uint64_t v) noexcept {
    if (i < kBuckets) buckets_[i] = v;
  }
  void set_total(std::uint64_t t) noexcept { total_ = t; }

  static constexpr unsigned kBuckets = 40;

 private:
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

}  // namespace hmm
