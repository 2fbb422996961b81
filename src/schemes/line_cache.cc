#include "schemes/line_cache.hh"

namespace hmm::schemes {

std::string LineCache::validate(const fault::AuditWindow& window) const {
  std::uint64_t sum = 0;
  for (const std::uint32_t n : block_valid_) sum += n;
  if (sum != valid_count_)
    return "valid-entry counter " + std::to_string(valid_count_) +
           " disagrees with the block counts' sum " + std::to_string(sum);
  const auto [first, end] = window.slice(block_valid_.size());
  for (std::uint64_t b = first; b < end; ++b) {
    const std::uint32_t n = recount(b);
    if (n != block_valid_[b])
      return "block " + std::to_string(b) + " valid count " +
             std::to_string(block_valid_[b]) +
             " disagrees with tag recount " + std::to_string(n);
  }
  return {};
}

void LineCache::save(snap::Writer& w) const {
  w.begin_section(snap::tag('L', 'N', 'C', 'H'));
  w.u64(valid_count_);
  std::visit(
      [&](const auto& tags) {
        for (std::uint64_t s = 0; s < sets_; ++s)
          if ((tags[s] & 1) != 0) {
            w.u64(s);
            w.u32(tags[s]);
          }
      },
      tags_);
  w.end_section();
}

void LineCache::restore(snap::Reader& r) {
  r.begin_section(snap::tag('L', 'N', 'C', 'H'));
  block_valid_.assign(block_valid_.size(), 0);
  valid_count_ = r.u64();
  std::visit(
      [&](auto& tags) {
        using Entry = typename std::decay_t<decltype(tags)>::value_type;
        tags.assign(sets_, 0);
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < valid_count_; ++i) {
          const std::uint64_t s = r.u64();
          if (s >= sets_)
            snap::snapshot_error("line-cache set index out of range");
          if (i > 0 && s <= prev)
            snap::snapshot_error("line-cache set indices not ascending");
          prev = s;
          const std::uint32_t e = r.u32();
          if ((e & 1) == 0)
            snap::snapshot_error("line-cache entry without its valid bit");
          if ((e >> 2) > max_tag_)
            snap::snapshot_error("line-cache tag past the address space");
          tags[s] = static_cast<Entry>(e);
          ++block_valid_[s / kBlockSets];
        }
      },
      tags_);
  r.end_section();
}

LineCache::Store LineCache::make_store(std::uint64_t sets,
                                       std::uint64_t max_tag) {
  HMM_CHECK(max_tag <= kMaxTagOf<std::uint32_t>,
            "address space too large for the packed line-cache tag");
  if (max_tag <= kMaxTagOf<std::uint8_t>)
    return std::vector<std::uint8_t>(sets, 0);
  if (max_tag <= kMaxTagOf<std::uint16_t>)
    return std::vector<std::uint16_t>(sets, 0);
  return std::vector<std::uint32_t>(sets, 0);
}

// A whole block is a fixed-length loop, which the compiler vectorizes.
std::uint32_t LineCache::recount(std::uint64_t b) const {
  const std::uint64_t first = b * kBlockSets;
  const std::uint64_t len = std::min(kBlockSets, sets_ - first);
  return std::visit(
      [&](const auto& tags) {
        const auto* t = tags.data() + first;
        std::uint32_t n = 0;
        if (len == kBlockSets) {
          for (std::uint64_t i = 0; i < kBlockSets; ++i) n += t[i] & 1u;
        } else {
          for (std::uint64_t i = 0; i < len; ++i) n += t[i] & 1u;
        }
        return n;
      },
      tags_);
}

}  // namespace hmm::schemes
