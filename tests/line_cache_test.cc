// The line cache's narrow entry store against the store it replaced: a
// copy of the LineCache that kept one 32-bit word per set whatever the
// address space, driven call for call by the same seeded stream at each
// entry width the narrow store picks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/units.hh"
#include "fault/sim_error.hh"
#include "schemes/line_cache.hh"

namespace hmm {
namespace {

/// The 32-bit-word tag store, as LineCache was before its entries took
/// the width of the address space. Restore and the test hooks are left
/// out; everything else is unchanged.
class WordLineCache {
 public:
  static constexpr std::uint64_t kBlockSets = 4096;

  WordLineCache(std::uint64_t capacity_bytes, std::uint64_t line_bytes)
      : line_bytes_(line_bytes),
        sets_(line_bytes > 0 ? capacity_bytes / line_bytes : 0),
        tags_(sets_, 0),
        block_valid_((sets_ + kBlockSets - 1) / kBlockSets, 0) {}

  [[nodiscard]] std::uint64_t set_of(PhysAddr addr) const noexcept {
    return (addr / line_bytes_) % sets_;
  }

  [[nodiscard]] bool present(PhysAddr addr) const noexcept {
    if (sets_ == 0) return false;
    const std::uint32_t e = tags_[set_of(addr)];
    return (e & 1u) != 0 && (e >> 2) == tag_of(addr);
  }

  [[nodiscard]] schemes::LineCache::Lookup access(PhysAddr addr, bool dirty) {
    schemes::LineCache::Lookup lk;
    if (sets_ == 0) return lk;
    const std::uint64_t tag = tag_of(addr);
    HMM_CHECK(tag < (1u << 30),
              "address space too large for the packed line-cache tag");
    lk.set = set_of(addr);
    std::uint32_t& e = tags_[lk.set];
    if ((e & 1u) != 0 && (e >> 2) == tag) {
      lk.hit = true;
      if (dirty) e |= 2u;
      return lk;
    }
    if ((e & 1u) != 0) {
      lk.victim_valid = true;
      lk.victim_dirty = (e & 2u) != 0;
      lk.victim_addr = ((static_cast<std::uint64_t>(e >> 2) * sets_) +
                        lk.set) *
                       line_bytes_;
    } else {
      ++valid_count_;
      ++block_valid_[lk.set / kBlockSets];
    }
    e = static_cast<std::uint32_t>(tag << 2) | (dirty ? 2u : 0u) | 1u;
    return lk;
  }

  [[nodiscard]] schemes::LineCache::Purged purge_set(std::uint64_t set) {
    schemes::LineCache::Purged p;
    if (set >= sets_) return p;
    const std::uint32_t e = tags_[set];
    if ((e & 1u) != 0) {
      p.valid = true;
      p.dirty = (e & 2u) != 0;
      p.addr = ((static_cast<std::uint64_t>(e >> 2) * sets_) + set) *
               line_bytes_;
      --valid_count_;
      --block_valid_[set / kBlockSets];
      tags_[set] = 0;
    }
    return p;
  }

  [[nodiscard]] bool any_valid_in(std::uint64_t first_set,
                                  std::uint64_t count) const noexcept {
    const std::uint64_t end = std::min(first_set + count, sets_);
    for (std::uint64_t s = first_set; s < end; ++s)
      if ((tags_[s] & 1u) != 0) return true;
    return false;
  }

  void invalidate_set(std::uint64_t set) {
    if (set >= sets_) return;
    if ((tags_[set] & 1u) != 0) {
      --valid_count_;
      --block_valid_[set / kBlockSets];
    }
    tags_[set] = 0;
  }

  [[nodiscard]] std::string validate() const {
    std::uint64_t sum = 0;
    for (const std::uint32_t n : block_valid_) sum += n;
    if (sum != valid_count_)
      return "valid-entry counter " + std::to_string(valid_count_) +
             " disagrees with the block counts' sum " + std::to_string(sum);
    for (std::uint64_t b = 0; b < block_valid_.size(); ++b) {
      const std::uint64_t first = b * kBlockSets;
      const std::uint64_t len = std::min(kBlockSets, sets_ - first);
      std::uint32_t n = 0;
      for (std::uint64_t i = 0; i < len; ++i) n += tags_[first + i] & 1u;
      if (n != block_valid_[b])
        return "block " + std::to_string(b) + " valid count " +
               std::to_string(block_valid_[b]) +
               " disagrees with tag recount " + std::to_string(n);
    }
    return {};
  }

  [[nodiscard]] std::vector<std::uint8_t> bytes() const {
    snap::Writer w;
    w.begin_section(snap::tag('L', 'N', 'C', 'H'));
    w.u64(valid_count_);
    for (std::uint64_t s = 0; s < sets_; ++s)
      if ((tags_[s] & 1u) != 0) {
        w.u64(s);
        w.u32(tags_[s]);
      }
    w.end_section();
    return w.take();
  }

 private:
  [[nodiscard]] std::uint64_t tag_of(PhysAddr addr) const noexcept {
    return addr / line_bytes_ / sets_;
  }

  std::uint64_t line_bytes_;
  std::uint64_t sets_;
  std::vector<std::uint32_t> tags_;
  std::uint64_t valid_count_ = 0;
  std::vector<std::uint32_t> block_valid_;
};

[[nodiscard]] std::vector<std::uint8_t> bytes_of(const schemes::LineCache& c) {
  snap::Writer w;
  c.save(w);
  return w.take();
}

// Over a 4 GiB space: the largest tag a byte holds and one past it, then
// the largest two bytes hold and one past that.
TEST(LineCache, EntryWidthFollowsTheLargestTag) {
  constexpr std::uint64_t kSpace = 4 * GiB;
  const struct {
    std::uint64_t capacity;
    std::uint64_t max_tag;
    unsigned bits;
  } cases[] = {
      {64 * MiB, 63, 8},
      {32 * MiB, 127, 16},
      {256 * KiB, 16383, 16},
      {128 * KiB, 32767, 32},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.capacity);
    const schemes::LineCache cache(c.capacity, 64, kSpace);
    EXPECT_EQ(cache.max_tag(), c.max_tag);
    EXPECT_EQ(cache.entry_bits(), c.bits);
  }
  // 64 sets over 2^42 bytes: tags up to 2^30 - 1 still fit a word, one
  // more bit does not.
  EXPECT_EQ(schemes::LineCache(4 * KiB, 64, 1ull << 42).entry_bits(), 32u);
  EXPECT_THROW((void)schemes::LineCache(4 * KiB, 64, 1ull << 43),
               fault::SimError);
}

// The narrow store must answer every call as the word store did and save
// the same bytes. Each width gets a seeded stream of accesses, purges and
// invalidations over a few sets (the first, the last and some between),
// each reached by several tags, so lines hit, conflict, go dirty, and are
// evicted, purged and dropped.
TEST(LineCache, NarrowStoreMatchesTheWordStoreCallForCall) {
  constexpr std::uint64_t kSpace = 4 * GiB;
  constexpr std::uint64_t kLine = 64;
  const struct {
    std::uint64_t capacity;
    unsigned bits;
    int calls;
  } cases[] = {
      // Every call saves and recounts all 8M sets: fewer calls.
      {512 * MiB, 8, 120},
      {1 * MiB, 16, 4000},
      {128 * KiB, 32, 4000},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.bits) + "-bit entries");
    schemes::LineCache narrow(c.capacity, kLine, kSpace);
    WordLineCache word(c.capacity, kLine);
    ASSERT_EQ(narrow.entry_bits(), c.bits);
    const std::uint64_t sets = narrow.sets();
    const std::uint64_t max_tag = narrow.max_tag();
    Pcg32 rng(2029 + c.bits);
    std::vector<std::uint64_t> pool{0, sets - 1};
    while (pool.size() < 12) pool.push_back(rng.bounded64(sets));
    std::vector<std::uint64_t> tags{0, max_tag};
    while (tags.size() < 4) tags.push_back(rng.bounded64(max_tag + 1));

    for (int call = 0; call < c.calls; ++call) {
      const std::uint64_t set =
          pool[rng.bounded(static_cast<std::uint32_t>(pool.size()))];
      const std::uint32_t op = rng.bounded(100);
      if (op < 5) {
        // Now and then a set past the store, which both ignore.
        const std::uint64_t s = rng.chance(0.1) ? sets + set : set;
        const auto a = narrow.purge_set(s);
        const auto b = word.purge_set(s);
        ASSERT_EQ(a.valid, b.valid) << "call " << call;
        ASSERT_EQ(a.dirty, b.dirty) << "call " << call;
        ASSERT_EQ(a.addr, b.addr) << "call " << call;
      } else if (op < 10) {
        const std::uint64_t s = rng.chance(0.1) ? sets + set : set;
        narrow.invalidate_set(s);
        word.invalidate_set(s);
      } else {
        const std::uint64_t tag =
            tags[rng.bounded(static_cast<std::uint32_t>(tags.size()))];
        const PhysAddr addr = (tag * sets + set) * kLine + rng.bounded(64);
        ASSERT_EQ(narrow.present(addr), word.present(addr)) << "call " << call;
        const bool dirty = rng.chance(0.3);
        const auto a = narrow.access(addr, dirty);
        const auto b = word.access(addr, dirty);
        ASSERT_EQ(a.hit, b.hit) << "call " << call;
        ASSERT_EQ(a.set, b.set) << "call " << call;
        ASSERT_EQ(a.victim_valid, b.victim_valid) << "call " << call;
        ASSERT_EQ(a.victim_dirty, b.victim_dirty) << "call " << call;
        ASSERT_EQ(a.victim_addr, b.victim_addr) << "call " << call;
        ASSERT_TRUE(narrow.present(addr)) << "call " << call;
      }
      const std::uint64_t probe = rng.bounded64(kSpace);
      ASSERT_EQ(narrow.present(probe), word.present(probe)) << "call " << call;
      ASSERT_EQ(narrow.any_valid_in(set, 3), word.any_valid_in(set, 3))
          << "call " << call;
      ASSERT_EQ(narrow.validate(), word.validate()) << "call " << call;
      ASSERT_EQ(bytes_of(narrow), word.bytes()) << "call " << call;
    }
  }
}

}  // namespace
}  // namespace hmm
