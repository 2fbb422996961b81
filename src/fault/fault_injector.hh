// Deterministic fault injection for the migration pipeline.
//
// A FaultPlan is a list of {site, rate, after, max_fires} rules; the
// FaultInjector evaluates them with one PCG32 stream *per site*, seeded
// from (plan seed, site index). Because each site's decisions depend only
// on that site's own opportunity counter, the fault sequence is a pure
// function of the plan — identical across thread counts, platforms, and
// unrelated code motion, which is what makes fault runs replayable.
//
// An empty plan is free: fires() returns immediately without touching any
// RNG, so a fault-rate-0 run is bit-identical to a build without the
// hooks. Sites (where the hooks live):
//   MigrationChunkDrop   engine: a copy chunk's completion is lost
//   MigrationChunkDelay  engine: a copy chunk must be re-streamed later
//   SwapAbort            engine: the in-flight swap aborts mid-step
//   ChannelStall         dram:   transient stall delays a request's arrival
//   TableBitFlip         memsim: a P/occupant bit of the table flips
//   HotnessCorrupt       schemes: an access is recorded for a wrong page
//   MediaTransient       ras: a transient bit flip in a machine frame
//   MediaStuckAt         ras: a permanent stuck-at cell in a machine frame
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/random.hh"
#include "common/snapshot.hh"
#include "common/types.hh"

namespace hmm::fault {

enum class FaultSite : std::uint8_t {
  MigrationChunkDrop,
  MigrationChunkDelay,
  SwapAbort,
  ChannelStall,
  TableBitFlip,
  HotnessCorrupt,
  MediaTransient,
  MediaStuckAt,
};
inline constexpr unsigned kFaultSiteCount = 8;

[[nodiscard]] constexpr const char* to_string(FaultSite s) noexcept {
  switch (s) {
    case FaultSite::MigrationChunkDrop: return "chunk-drop";
    case FaultSite::MigrationChunkDelay: return "chunk-delay";
    case FaultSite::SwapAbort: return "swap-abort";
    case FaultSite::ChannelStall: return "channel-stall";
    case FaultSite::TableBitFlip: return "table-bit-flip";
    case FaultSite::HotnessCorrupt: return "hotness-corrupt";
    case FaultSite::MediaTransient: return "media-transient";
    case FaultSite::MediaStuckAt: return "media-stuck-at";
  }
  return "?";
}

/// Parse a site name as printed by to_string(); returns false on no match.
[[nodiscard]] inline bool site_from_name(std::string_view name,
                                         FaultSite& out) noexcept {
  for (unsigned i = 0; i < kFaultSiteCount; ++i) {
    const auto s = static_cast<FaultSite>(i);
    if (name == to_string(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

/// One injection rule. `rate >= 1` fires at every opportunity; otherwise
/// each opportunity fires with probability `rate`. The first `after`
/// opportunities never fire (arming delay, for targeting a specific chunk
/// or access), and at most `max_fires` faults are injected in total.
struct FaultRule {
  FaultSite site = FaultSite::MigrationChunkDrop;
  double rate = 0.0;
  std::uint64_t after = 0;
  std::uint64_t max_fires = UINT64_MAX;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed = 0x5eedfau;

  [[nodiscard]] bool empty() const noexcept { return rules.empty(); }
  FaultPlan& add(FaultSite site, double rate, std::uint64_t after = 0,
                 std::uint64_t max_fires = UINT64_MAX) {
    rules.push_back({site, rate, after, max_fires});
    return *this;
  }
};

/// One injected fault, recorded for the results artifact (bounded log).
struct FaultEvent {
  FaultSite site = FaultSite::MigrationChunkDrop;
  std::uint64_t opportunity = 0;  ///< site-local opportunity index
  std::uint64_t detail = 0;       ///< site-specific (chunk index, page id...)
};

/// FaultEvent's wire form, shared by 'FINJ' and the journal's 'CELL'.
template <class Ar>
void event_io(Ar& ar, FaultEvent& e) {
  snap::u8(ar, e.site);
  snap::u64(ar, e.opportunity);
  snap::u64(ar, e.detail);
}

class FaultInjector {
 public:
  static constexpr std::size_t kMaxEvents = 4096;

  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {
    for (const FaultRule& r : plan.rules) {
      SiteState& st = sites_[index(r.site)];
      st.rule = r;  // one rule per site; last one wins
      st.armed = r.rate > 0.0 && r.max_fires > 0;
    }
    for (unsigned i = 0; i < kFaultSiteCount; ++i)
      sites_[i].rng = Pcg32(plan.seed, /*stream=*/i + 1);
    payload_rng_ = Pcg32(plan.seed, /*stream=*/kFaultSiteCount + 1);
    enabled_ = !plan.rules.empty();
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// One opportunity at `site`; returns true when the fault fires (and
  /// records it). Deterministic: depends only on the plan and the number
  /// of prior opportunities at this same site.
  bool fires(FaultSite site, std::uint64_t detail = 0) {
    if (!enabled_) return false;
    SiteState& st = sites_[index(site)];
    if (!st.armed) return false;
    const std::uint64_t op = st.opportunities++;
    if (op < st.rule.after) return false;
    if (st.fires >= st.rule.max_fires) return false;
    const bool hit = st.rule.rate >= 1.0 || st.rng.chance(st.rule.rate);
    if (!hit) return false;
    ++st.fires;
    ++total_fires_;
    if (events_.size() < kMaxEvents) {
      events_.push_back({site, op, detail});
    } else {
      ++events_dropped_;  // bounded log overflowed; keep an honest count
    }
    return true;
  }

  /// Site-independent randomness for fault *payloads* (which bit to flip,
  /// which page id to scramble) — separate stream so payload draws never
  /// perturb the fire/no-fire sequences.
  [[nodiscard]] Pcg32& payload_rng() noexcept { return payload_rng_; }

  [[nodiscard]] std::uint64_t opportunities(FaultSite s) const noexcept {
    return sites_[index(s)].opportunities;
  }
  [[nodiscard]] std::uint64_t fires_count(FaultSite s) const noexcept {
    return sites_[index(s)].fires;
  }
  [[nodiscard]] std::uint64_t total_fires() const noexcept {
    return total_fires_;
  }
  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  /// Fired faults that could not be logged because the bounded event log
  /// was full. Nonzero means events() is a truncated record.
  [[nodiscard]] std::uint64_t events_dropped() const noexcept {
    return events_dropped_;
  }

  /// Checkpoint/restore of the dynamic state (opportunity counters, fire
  /// counts, site RNG streams, event log). The plan itself is not
  /// serialized — the restoring side constructs with the same FaultPlan.
  void save(snap::Writer& w) const { const_cast<FaultInjector*>(this)->io(w); }
  void restore(snap::Reader& r) { io(r); }

 private:
  struct SiteState {
    FaultRule rule;
    bool armed = false;
    std::uint64_t opportunities = 0;
    std::uint64_t fires = 0;
    Pcg32 rng;
  };

  [[nodiscard]] static constexpr unsigned index(FaultSite s) noexcept {
    return static_cast<unsigned>(s);
  }

  template <class Ar>
  void io(Ar& ar) {
    snap::section(ar, snap::tag('F', 'I', 'N', 'J'), [&] {
      snap::expect<std::uint32_t>(ar, kFaultSiteCount, "fault-site count");
      for (SiteState& st : sites_) {
        snap::u64(ar, st.opportunities);
        snap::u64(ar, st.fires);
        snap::rng(ar, st.rng);
      }
      snap::rng(ar, payload_rng_);
      snap::u64(ar, total_fires_);
      snap::u64(ar, events_dropped_);
      snap::seq(ar, events_, [&](FaultEvent& e) { event_io(ar, e); });
    });
  }

  FaultPlan plan_;  // no-snapshot(construction-time config)
  std::array<SiteState, kFaultSiteCount> sites_;
  Pcg32 payload_rng_;
  bool enabled_ = false;  // no-snapshot(derived from plan_ in ctor)
  std::uint64_t total_fires_ = 0;
  std::uint64_t events_dropped_ = 0;
  std::vector<FaultEvent> events_;
};

}  // namespace hmm::fault
