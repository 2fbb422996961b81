// Machine-address -> (channel, bank, row, column) decomposition.
//
// Default interleaving (from LSB): [line offset][channel][column][bank][row],
// i.e. consecutive cache lines rotate across channels, consecutive
// channel-local lines fill a DRAM row (giving streams open-row hits), and
// rows rotate across banks.
#pragma once

#include <cstdint>

#include "common/types.hh"
#include "common/units.hh"
#include "dram/timing.hh"

namespace hmm {

struct DramCoordinates {
  unsigned channel = 0;
  unsigned bank = 0;
  std::uint64_t row = 0;
  std::uint64_t column = 0;  ///< line index within the row
};

class AddressMapping {
 public:
  /// Interleave order for the bank bits relative to the row bits.
  enum class Scheme {
    RowBankColChan,  ///< default described above
    RowColBankChan,  ///< banks rotate every line: more bank parallelism,
                     ///< fewer open-row hits for streams
  };

  /// `xor_fold`: permutation-based interleaving — XORs row bits into the
  /// channel and bank selection so power-of-two strides spread over all
  /// banks/channels instead of degenerating onto one (standard practice
  /// in real memory controllers; bijective, so no aliasing).
  AddressMapping(unsigned channels, const DramTiming& t,
                 Scheme scheme = Scheme::RowBankColChan,
                 std::uint64_t line_bytes = 64, bool xor_fold = true) noexcept
      : line_shift_(log2_exact(line_bytes)),
        chan_bits_(log2_exact(channels)),
        col_bits_(log2_exact(t.rowBytes / line_bytes)),
        bank_bits_(log2_exact(t.banks)),
        scheme_(scheme),
        xor_fold_(xor_fold) {}

  [[nodiscard]] DramCoordinates decode(MachAddr addr) const noexcept {
    std::uint64_t v = addr >> line_shift_;
    DramCoordinates c;
    c.channel = static_cast<unsigned>(v & mask(chan_bits_));
    v >>= chan_bits_;
    if (scheme_ == Scheme::RowBankColChan) {
      c.column = v & mask(col_bits_);
      v >>= col_bits_;
      c.bank = static_cast<unsigned>(v & mask(bank_bits_));
      v >>= bank_bits_;
    } else {
      c.bank = static_cast<unsigned>(v & mask(bank_bits_));
      v >>= bank_bits_;
      c.column = v & mask(col_bits_);
      v >>= col_bits_;
    }
    c.row = v;
    if (xor_fold_) {
      // Fold several row-bit groups so that any power-of-two address
      // alignment (heap bases, array strides) still spreads across banks.
      const std::uint64_t fold =
          c.row ^ (c.row >> bank_bits_) ^ (c.row >> (2 * bank_bits_));
      c.bank = static_cast<unsigned>((c.bank ^ fold) & mask(bank_bits_));
      c.channel = static_cast<unsigned>(
          (c.channel ^ fold ^ (fold >> chan_bits_)) & mask(chan_bits_));
    }
    return c;
  }

  [[nodiscard]] unsigned channels() const noexcept { return 1u << chan_bits_; }

 private:
  static constexpr std::uint64_t mask(unsigned bits) noexcept {
    return (bits >= 64) ? ~0ull : ((1ull << bits) - 1);
  }

  unsigned line_shift_;
  unsigned chan_bits_;
  unsigned col_bits_;
  unsigned bank_bits_;
  Scheme scheme_;
  bool xor_fold_;
};

}  // namespace hmm
