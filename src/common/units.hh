// Byte-size units and small helpers for powers of two.
#pragma once

#include "fault/sim_error.hh"
#include <bit>
#include <cstdint>
#include <string>

namespace hmm {

inline constexpr std::uint64_t KiB = 1024ull;
inline constexpr std::uint64_t MiB = 1024ull * KiB;
inline constexpr std::uint64_t GiB = 1024ull * MiB;

/// True iff `x` is a (nonzero) power of two.
[[nodiscard]] constexpr bool is_pow2(std::uint64_t x) noexcept {
  return x != 0 && (x & (x - 1)) == 0;
}

/// floor(log2(x)) for x != 0; 0 for x == 0.
[[nodiscard]] constexpr unsigned log2_floor(std::uint64_t x) noexcept {
  return static_cast<unsigned>(std::bit_width(x | 1)) - 1;
}

/// log2 of a power of two; throws SimError if x is not one.
[[nodiscard]] constexpr unsigned log2_exact(std::uint64_t x) {
  HMM_CHECK(is_pow2(x), "log2_exact needs a power of two");
  return static_cast<unsigned>(std::countr_zero(x));
}

/// Smallest power of two >= x (x <= 2^63).
[[nodiscard]] constexpr std::uint64_t ceil_pow2(std::uint64_t x) noexcept {
  if (x <= 1) return 1;
  return 1ull << (log2_floor(x - 1) + 1);
}

/// Integer division rounding up.
[[nodiscard]] constexpr std::uint64_t div_ceil(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  return (a + b - 1) / b;
}

/// "4KB", "512MB", "1GB", "640B" — human-readable size for reports.
[[nodiscard]] inline std::string format_size(std::uint64_t bytes) {
  if (bytes >= GiB && bytes % GiB == 0)
    return std::to_string(bytes / GiB) + "GB";
  if (bytes >= MiB && bytes % MiB == 0)
    return std::to_string(bytes / MiB) + "MB";
  if (bytes >= KiB && bytes % KiB == 0)
    return std::to_string(bytes / KiB) + "KB";
  return std::to_string(bytes) + "B";
}

}  // namespace hmm
