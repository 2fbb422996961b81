// Simulator-throughput replay binary (bench/throughput; README.md explains
// the workloads and every metric).
//
// One process replays one benchmark workload: a fixed list of cells, each
// a Section IV trace through one scheme, replayed in ExperimentRunner::
// replay's exact sequence (instant-migration warm-up, reset_stats,
// measured phase, finish). Plain repetitions run MemSim itself and time
// the replay on the host; construction-only runs time set-up. With
// --trace 1, four more repetitions per cell run through Mirror: a copy of
// MemSim's step / pump / throttle / stall / finish loops built from public
// calls only, which times the calls into each layer on a sample of the
// accesses. The mirror must reproduce MemSim bit for bit, so its result
// digest is compared with the plain one. Delete Mirror once the simulator
// carries its own scoped timers.
//
// Usage: throughput --workload NAME [--seed S] [--accesses N]
//                   [--seconds T] [--min-reps R] [--trace 0|1]
//                   [--chrome-trace PATH]
// Prints one JSON object on stdout; exits 2 on a usage error.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.hh"
#include "common/snapshot.hh"
#include "dram/address_mapping.hh"
#include "runner/json.hh"

using namespace hmm;

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// This process's peak resident set. Not getrusage(): its ru_maxrss
/// survives execve, so it would report the launching process's peak
/// whenever that is larger.
[[nodiscard]] double peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0)
      kib = std::strtod(line + 6, nullptr);
  std::fclose(f);
  return kib;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

// --- workloads ---------------------------------------------------------------

struct Cell {
  std::string trace;   ///< Section IV workload name (Table III)
  MemSimConfig cfg;
  std::uint64_t seed = 0;  ///< generator seed
  const WorkloadInfo* info = nullptr;
};

[[nodiscard]] MemSimConfig zoo_config(const std::string& scheme,
                                      std::uint64_t page,
                                      std::uint64_t interval) {
  MemSimConfig cfg = bench::migration_config(
      page, MigrationDesign::LiveMigration, interval);
  cfg.scheme = scheme;
  cfg.cache_fraction = 0.5;
  return cfg;
}

/// ras_availability's settings at media rate 1e-4 (stuck-at at rate/4).
[[nodiscard]] MemSimConfig ras_config(const std::string& scheme,
                                      std::uint64_t plan_seed) {
  MemSimConfig cfg = zoo_config(scheme, 256 * KiB, 1'000);
  cfg.audit_interval = 4'096;
  cfg.fault.seed = plan_seed;
  cfg.fault.add(fault::FaultSite::MediaTransient, 1e-4);
  cfg.fault.add(fault::FaultSite::MediaStuckAt, 2.5e-5);
  cfg.ras.enabled = true;
  cfg.ras.scrub_interval = 1'000;
  return cfg;
}

/// The cells of one workload; empty for an unknown name. Each workload
/// loads a different layer (README.md, "Workloads").
[[nodiscard]] std::vector<Cell> workload_cells(const std::string& workload,
                                               std::uint64_t seed) {
  std::uint64_t page = 4 * MiB;
  const std::uint64_t interval = 10'000;
  std::vector<std::pair<std::string, std::string>> pairs;  // trace, scheme
  if (workload == "swap-skewed") {
    pairs = {{"pgbench", "Live"}, {"SPEC2006", "nomad"},
             {"indexer", "flat-HMA"}};
  } else if (workload == "cache-stream") {
    pairs = {{"FT", "Alloy"}, {"MG", "MemCache"}};
  } else if (workload == "stall-drain") {
    // 1 MiB pages: every interval swaps, so the copy work is the same for
    // every seed (with 4 MiB pages it varies by a quarter between seeds).
    page = 1 * MiB;
    pairs = {{"SPECjbb", "N"}, {"indexer", "N"}};
  } else if (workload == "ras-media") {
    pairs = {{"pgbench", "Live"}, {"pgbench", "MemCache"}};
  } else {
    return {};
  }
  std::vector<Cell> cells;
  for (const auto& [trace, scheme] : pairs) {
    Cell c;
    c.trace = trace;
    const std::string key = workload + "/" + trace;
    c.seed = runner::derive_seed(seed, key);
    c.cfg = workload == "ras-media"
                ? ras_config(scheme, runner::derive_seed(seed, key + "/" +
                                                                   scheme))
                : zoo_config(scheme, page, interval);
    for (const WorkloadInfo& w : section4_workloads())
      if (w.name == trace) c.info = &w;
    HMM_CHECK(c.info != nullptr, "unknown Section IV trace " + trace);
    cells.push_back(std::move(c));
  }
  return cells;
}

// --- tracing -----------------------------------------------------------------

/// Span names; the prefix before the first '.' is the layer (module).
enum Name : std::uint8_t {
  kStep, kCompletion, kStall, kStallIter, kFinish, kFinishIter,
  kNext,
  kOnAccess, kTranslate, kBgCompletion,
  kSubmit, kDrain, kDrainAll, kTake,
  kRasProbe,
  kAudit, kRasSweep,
  kCalibrate,
  kNameCount
};
constexpr std::array<const char*, kNameCount> kNames = {
    "sim.step", "sim.completion", "sim.stall", "sim.stall_iter",
    "sim.finish", "sim.finish_iter",
    "trace.next",
    "schemes.on_access", "schemes.translate", "schemes.bg_completion",
    "dram.submit", "dram.drain", "dram.drain_all", "dram.take",
    "ras.probe",
    "fault.audit", "fault.ras_sweep",
    "bench.calibrate"};

/// How a span decides whether to time itself.
enum class Mode : std::uint8_t {
  kChild,   ///< timed iff its parent is timed
  kAlways,  ///< rare, heavy call: timed every time
  kSample,  ///< timed 1 time in kRate (an access, or a loop iteration)
};

/// Sampled span recorder. Each timed span carries a weight w, the inverse
/// of the probability that it was timed, so that sum(w * time) over a name
/// estimates that name's total host time. A span's time is its measured
/// duration less the tracer's own cost: the empty-span cost, and the cost
/// each timed descendant adds around itself (both from calibrate()). Its
/// self time is that minus its children's times, a sampled child counted
/// kRate times to stand for the siblings that were left out.
class Tracer {
 public:
  static constexpr std::uint32_t kRate = 64;
  static constexpr std::uint64_t kMaxRecorded = 10'000;
  /// Self time above which a sampled span is taken for host noise.
  static constexpr double kNoiseNs = 50'000;
  /// Chrome-trace records kept in memory, allocated and touched up front
  /// so that no page fault lands inside a span.
  static constexpr std::size_t kMaxRecords = 24 * kMaxRecorded;

  struct Total {
    std::uint64_t calls = 0;   ///< exact calls
    double self_ns = 0;        ///< estimated self time
    double incl_ns = 0;        ///< estimated inclusive time
    double timed_calls = 0;    ///< estimated calls behind the two sums
    double dropped_calls = 0;  ///< estimated calls dropped as noise

    [[nodiscard]] double per_call_ns() const {
      return timed_calls > 0 ? self_ns / timed_calls : 0.0;
    }
    /// Self time of every call, dropped ones at the kept calls' mean.
    [[nodiscard]] double all_calls_ns() const {
      return self_ns + per_call_ns() * dropped_calls;
    }
  };

  Tracer() : records_(kMaxRecords) {}

  enum class Opened : std::uint8_t { kNone, kSpan, kMute };

  /// Opens a span if `mode` says this call is timed. A kSample call left
  /// out inside a timed parent mutes its whole subtree instead: the parent
  /// accounts for it through the sampled siblings' weight. Every call is
  /// counted exactly either way.
  Opened open(Name n, Mode mode) {
    ++totals_[n].calls;
    if (muted_ > 0) return Opened::kNone;
    bool timed = true;
    if (mode == Mode::kChild) {
      timed = !stack_.empty();
    } else if (mode == Mode::kSample && rng_.next() % kRate != 0) {
      if (stack_.empty()) return Opened::kNone;
      ++muted_;
      return Opened::kMute;
    }
    if (!timed) return Opened::kNone;
    push(n, mode);
    return Opened::kSpan;
  }

  void unmute() noexcept { --muted_; }

  void close() {
    const std::int64_t t = now_ns();
    const Open o = stack_.back();
    stack_.pop_back();
    last_raw_ns_ = static_cast<double>(t - o.start);
    double real = last_raw_ns_ - empty_ns_ -
                  static_cast<double>(o.descendants) * nest_ns_ - o.noise_ns;
    double noise = o.noise_ns;
    const double self = real - o.children_ns;
    Total& tot = totals_[o.name];
    if (o.w > 1 && self > kNoiseNs) {
      // A sampled call this slow is almost always the host preempting the
      // process, which the weight would multiply; keep it out of every
      // estimate, ancestors' included.
      tot.dropped_calls += o.w;
      real -= self;
      noise += self;
    } else {
      tot.incl_ns += o.w * real;
      tot.self_ns += o.w * self;
      tot.timed_calls += o.w;
    }
    if (!stack_.empty()) {
      Open& parent = stack_.back();
      parent.children_ns += o.scale * real;
      parent.noise_ns += noise;
      parent.descendants += o.descendants + 1;
    }
    if (o.rec >= 0) records_[static_cast<std::size_t>(o.rec)].end = t;
  }

  void set_access(std::uint64_t id) noexcept { access_ = id; }

  /// Measures, through open()/close() themselves, the duration of an empty
  /// span and the extra time one empty child adds to its parent. The cost
  /// of a clock read drifts with the host's load, so this runs before
  /// every traced cell-run; its own spans are neither recorded nor
  /// reported.
  void calibrate() {
    calibrating_ = true;
    constexpr int kRounds = 2'001;
    std::vector<double> empty;
    std::vector<double> nest;
    for (int i = 0; i < kRounds; ++i) {
      open(kCalibrate, Mode::kAlways);
      close();
      empty.push_back(last_raw_ns_);
    }
    for (int i = 0; i < kRounds; ++i) {
      open(kCalibrate, Mode::kAlways);
      open(kCalibrate, Mode::kAlways);
      close();
      const double inner = last_raw_ns_;
      close();
      nest.push_back(last_raw_ns_ - inner);
    }
    empty_ns_ = median(empty);
    nest_ns_ = median(nest);
    calibrating_ = false;
  }

  [[nodiscard]] const Total& total(Name n) const { return totals_[n]; }

  /// Chrome trace-event JSON ("X" events, microseconds), openable offline
  /// in Perfetto or chrome://tracing. One line per event (the names are
  /// constants, nothing needs escaping): JsonWriter's one line per key
  /// would make the file ten times longer.
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = n_records_ == 0 ? 0 : records_.front().start;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    for (std::size_t i = 0; i < n_records_; ++i) {
      const Rec& r = records_[i];
      if (r.end == 0) continue;  // still open when a SimError unwound
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"access\":%llu,"
                   "\"id\":%zu,\"parent\":%lld}}\n",
                   first ? "" : ",", kNames[r.name],
                   static_cast<double>(r.start - t0) / 1e3,
                   static_cast<double>(r.end - r.start) / 1e3,
                   static_cast<unsigned long long>(r.access), i,
                   static_cast<long long>(r.parent));
      first = false;
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    Name name;
    double w;      ///< inverse probability that this span is timed
    double scale;  ///< copies of this span's time its parent deducts
    double children_ns;
    double noise_ns;  ///< dropped samples' time inside this span
    std::uint64_t descendants;  ///< timed spans nested inside, any depth
    std::int64_t rec;
    std::int64_t start;
  };
  struct Rec {
    Name name;
    std::int64_t parent;
    std::uint64_t access;
    std::int64_t start;
    std::int64_t end;
  };

  [[gnu::noinline]] void push(Name n, Mode mode) {
    const double parent_w = stack_.empty() ? 1.0 : stack_.back().w;
    double w = parent_w;  // kChild: the parent's weight
    double scale = 1.0;
    if (mode == Mode::kAlways) {
      w = 1.0;
    } else if (mode == Mode::kSample) {
      w = parent_w * kRate;
      scale = kRate;
      if (stack_.empty()) ++sampled_accesses_;
    }
    std::int64_t rec = -1;
    if (!calibrating_ && sampled_accesses_ <= kMaxRecorded &&
        n_records_ < kMaxRecords) {
      rec = static_cast<std::int64_t>(n_records_++);
      records_[static_cast<std::size_t>(rec)] = {
          n, stack_.empty() ? -1 : stack_.back().rec, access_, 0, 0};
    }
    stack_.push_back({n, w, scale, 0.0, 0.0, 0, rec, now_ns()});
    if (rec >= 0)
      records_[static_cast<std::size_t>(rec)].start = stack_.back().start;
  }

  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  Pcg32 rng_{0x7ace5eedULL};  // fixed seed: same sample on every run
  std::vector<Open> stack_;
  std::array<Total, kNameCount> totals_{};
  std::vector<Rec> records_;
  std::size_t n_records_ = 0;
  std::uint64_t sampled_accesses_ = 0;
  int muted_ = 0;  ///< open kSample spans left out
  bool calibrating_ = false;
  std::uint64_t access_ = 0;
  double empty_ns_ = 0;
  double nest_ns_ = 0;
  double last_raw_ns_ = 0;
};

/// RAII span: closes (or unmutes) what it opened.
class Span {
 public:
  Span(Tracer& t, Name n, Mode m = Mode::kChild)
      : t_(t), opened_(t.open(n, m)) {}
  ~Span() {
    if (opened_ == Tracer::Opened::kSpan) t_.close();
    if (opened_ == Tracer::Opened::kMute) t_.unmute();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  Tracer::Opened opened_;
};

// --- the traced replay -------------------------------------------------------

/// MemSim's replay loop rebuilt from public calls, with a span around each
/// call into a layer. Statement for statement the same as MemSim::step,
/// pump, throttle, force_migration_idle, and finish (src/sim/memsim.cc);
/// the digest check catches any drift.
class Mirror {
  template <class F>
  decltype(auto) timed(Name n, F&& f) {
    const Span s(tr_, n);
    return f();
  }

  // One span covers both regions: a span costs more host time than a
  // single call into an idle region, and the regions are always drained
  // together.
  Cycle drain_all(Cycle upto) {
    return timed(kDrainAll, [&] {
      return std::max(on_.drain_all(upto), off_.drain_all(upto));
    });
  }

  auto take_completions() {
    return timed(kTake, [&] {
      return std::pair{on_.take_completions(), off_.take_completions()};
    });
  }

 public:
  Mirror(MemSim& sim, const MemSimConfig& cfg, Tracer& tr)
      : sim_(sim),
        cfg_(cfg),
        scheme_(sim.scheme()),
        on_(sim.on_package()),
        off_(sim.off_package()),
        ras_(sim.mutable_ras()),
        auditor_(&sim.scheme(), cfg.audit_interval),
        tr_(tr) {
    HMM_CHECK(cfg.force == MemSimConfig::Force::None,
              "the mirror covers unforced replays only");
    for (const fault::FaultRule& r : cfg.fault.rules)
      HMM_CHECK(r.site != fault::FaultSite::TableBitFlip,
                "the mirror cannot reach MemSim's fault injector");
    if (ras_ != nullptr)
      auditor_.set_extra_check([this] {
        const Span s(tr_, kRasSweep);
        return ras_route_sweep();
      });
  }

  void set_instant_migration(bool on) { sim_.set_instant_migration(on); }

  void run(SyntheticWorkload& w, std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) step(w);
    finish();
  }

  void finish() {
    const Span fin(tr_, kFinish, Mode::kAlways);
    int guard = 0;
    Cycle end = std::max(last_now_, end_time_);
    for (;;) {
      const Span iter(tr_, kFinishIter, Mode::kSample);
      const Cycle t = drain_all(end);
      end = std::max(end, t);
      const auto [a, b] = take_completions();
      for (const auto& c : a) handle_completion(c, Region::OnPackage);
      for (const auto& c : b) handle_completion(c, Region::OffPackage);
      if ((a.empty() && b.empty()) || ++guard > 1'000'000) break;
    }
    end_time_ = end;
    check_wedged();
  }

  void reset_stats() {
    sim_.reset_stats();  // the DRAM systems' counters
    latency_.reset();
    read_latency_.reset();
    write_latency_.reset();
    on_latency_.reset();
    off_latency_.reset();
    latency_hist_.reset();
  }

  /// MemSim::result() with the fields MemSim computes from its own loop
  /// state replaced by the mirror's.
  [[nodiscard]] RunResult result() const {
    RunResult r = sim_.result();
    r.accesses = latency_.count();
    r.avg_latency = latency_.mean();
    r.avg_read_latency = read_latency_.mean();
    r.avg_write_latency = write_latency_.mean();
    r.avg_on_latency = on_latency_.mean();
    r.avg_off_latency = off_latency_.mean();
    r.p99_latency = static_cast<double>(latency_hist_.quantile(0.99));
    r.end_time = std::max(end_time_, last_now_);
    r.audits = auditor_.audits();
    return r;
  }

  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  /// Mean DramSystem::backlog() of the target region at demand submit.
  [[nodiscard]] double mean_queue_depth() const noexcept {
    return accesses_ == 0 ? 0.0
                          : static_cast<double>(queue_depth_sum_) /
                                static_cast<double>(accesses_);
  }

 private:
  void step(SyntheticWorkload& w) {
    tr_.set_access(accesses_);
    const Span access(tr_, kStep, Mode::kSample);
    const TraceRecord r = timed(kNext, [&] { return w.next(); });
    Cycle now = std::max(r.timestamp + slip_, last_now_);
    pump(now);

    const Cycle issue_time = now;
    schemes::SchemeDecision d = timed(
        kOnAccess, [&] { return scheme_.on_access(r.addr, r.type, now); });
    if (d.stall_until_idle) {
      blocked_until_ = std::max(blocked_until_, force_migration_idle(now));
      d.route = timed(kTranslate, [&] { return scheme_.translate(r.addr); });
    }
    if (blocked_until_ > now) d.extra_latency += blocked_until_ - now;

    const Region region = d.route.region;
    const MachAddr mach = d.route.mach;
    if (ras_ != nullptr) {
      const Span s(tr_, kRasProbe);
      const PageId frame = cfg_.controller.geom.page_of(mach);
      if (ras_->retired(frame))
        throw fault::SimError(
            fault::SimErrorKind::AuditFailed,
            "demand access served from retired frame " +
                std::to_string(frame));
      d.extra_latency += ras_->on_demand_access(frame, now);
    }

    DramSystem& sys = region == Region::OnPackage ? on_ : off_;
    throttle(sys, now);
    queue_depth_sum_ += sys.backlog();
    const RequestId id = timed(kSubmit, [&] {
      return sys.submit(mach, 64, r.type, Priority::Demand,
                        now + d.extra_latency);
    });
    auto& map = region == Region::OnPackage ? demand_on_ : demand_off_;
    map.emplace(id, MemSim::Outstanding{issue_time, d.extra_latency,
                                        r.type == AccessType::Read});
    last_now_ = now;
    ++accesses_;
    // The auditor sweeps on every interval-th access: a rare, heavy call,
    // so it is timed every time; the other calls only count.
    if (cfg_.audit_interval != 0 && ++since_audit_ >= cfg_.audit_interval) {
      since_audit_ = 0;
      const Span s(tr_, kAudit, Mode::kAlways);
      auditor_.on_access();
    } else {
      auditor_.on_access();
    }
  }

  void pump(Cycle now) {
    for (int guard = 0; guard < 1000; ++guard) {
      timed(kDrain, [&] {
        on_.drain_until(now);
        off_.drain_until(now);
      });
      const auto [a, b] = take_completions();
      if (a.empty() && b.empty()) return;
      for (const auto& c : a) handle_completion(c, Region::OnPackage);
      for (const auto& c : b) handle_completion(c, Region::OffPackage);
    }
  }

  Cycle force_migration_idle(Cycle now) {
    const Span stall(tr_, kStall, Mode::kAlways);
    int guard = 0;
    while (!scheme_.background_idle() && ++guard < 1'000'000) {
      const Span iter(tr_, kStallIter, Mode::kSample);
      const Cycle t = drain_all(now);
      const auto [a, b] = take_completions();
      for (const auto& c : a) handle_completion(c, Region::OnPackage);
      for (const auto& c : b) handle_completion(c, Region::OffPackage);
      now = std::max(now, t);
      if (a.empty() && b.empty()) {
        check_wedged();
        break;
      }
    }
    if (!scheme_.background_idle() && guard >= 1'000'000)
      throw fault::SimError(fault::SimErrorKind::Watchdog,
                            "swap did not finish within the event budget");
    return now;
  }

  void throttle(DramSystem& sys, Cycle& now) {
    int guard = 0;
    while (sys.demand_backlog() >= cfg_.max_demand_backlog &&
           ++guard < 1'000'000) {
      const Cycle step = 200;
      slip_ += step;
      now += step;
      pump(now);
    }
    if (sys.demand_backlog() >= cfg_.max_demand_backlog)
      throw fault::SimError(fault::SimErrorKind::Watchdog,
                            "demand backlog refuses to drain");
  }

  void handle_completion(const DramCompletion& c, Region region) {
    if (c.priority == Priority::Background) {
      timed(kBgCompletion,
            [&] { scheme_.on_background_completion(c, region); });
      return;
    }
    const Span s(tr_, kCompletion);
    auto& map = region == Region::OnPackage ? demand_on_ : demand_off_;
    const auto it = map.find(c.id);
    if (it == map.end()) return;
    const MemSim::Outstanding o = it->second;
    map.erase(it);
    const DramSystem& sys = region == Region::OnPackage ? on_ : off_;
    const double lat =
        static_cast<double>(c.finish - o.issued + sys.wire_overhead());
    latency_.add(lat);
    latency_hist_.add(static_cast<std::uint64_t>(lat));
    (o.is_read ? read_latency_ : write_latency_).add(lat);
    (region == Region::OnPackage ? on_latency_ : off_latency_).add(lat);
  }

  void check_wedged() const {
    if (scheme_.background_idle()) return;
    if (scheme_.in_flight_chunks() != 0) return;
    if (on_.backlog() != 0 || off_.backlog() != 0) return;
    throw fault::SimError(
        fault::SimErrorKind::Watchdog,
        std::string("migration engine wedged mid-swap (design ") +
            scheme_.name() + "): simulated time cannot advance");
  }

  [[nodiscard]] std::string ras_route_sweep() const {
    const Geometry& g = cfg_.controller.geom;
    const PageId first_reserved = g.omega() - cfg_.ras.spare_frames;
    for (PageId p = 0; p < first_reserved; ++p) {
      const PageId frame = g.page_of(scheme_.translate(g.machine_base(p)).mach);
      if (ras_->retired(frame))
        return "RAS sweep: page " + std::to_string(p) +
               " routes to retired frame " + std::to_string(frame);
    }
    return {};
  }

  MemSim& sim_;
  const MemSimConfig& cfg_;
  schemes::MemoryScheme& scheme_;
  DramSystem& on_;
  DramSystem& off_;
  ras::RasEngine* ras_;
  fault::InvariantAuditor auditor_;
  Tracer& tr_;

  std::unordered_map<RequestId, MemSim::Outstanding> demand_on_;
  std::unordered_map<RequestId, MemSim::Outstanding> demand_off_;
  Cycle slip_ = 0;
  Cycle last_now_ = 0;
  Cycle end_time_ = 0;
  Cycle blocked_until_ = 0;
  RunningStat latency_;
  RunningStat read_latency_;
  RunningStat write_latency_;
  RunningStat on_latency_;
  RunningStat off_latency_;
  Log2Histogram latency_hist_;

  std::uint64_t accesses_ = 0;
  std::uint64_t since_audit_ = 0;
  std::uint64_t queue_depth_sum_ = 0;
};

// --- one cell-run ------------------------------------------------------------

/// ExperimentRunner::replay's sequence, for MemSim and Mirror alike.
template <class Sim>
void replay(Sim& sim, SyntheticWorkload& gen, std::uint64_t n) {
  const auto warm = static_cast<std::uint64_t>(static_cast<double>(n) * 0.5);
  if (warm > 0) {
    sim.set_instant_migration(true);
    sim.run(gen, warm);
    sim.set_instant_migration(false);
    sim.reset_stats();
  }
  sim.run(gen, n - warm);
  sim.finish();
}

struct CellRun {
  double setup_s = 0;  ///< a construction sample taken before the replay
  double replay_s = 0;
  RunResult result;
  std::uint64_t background_bytes = 0;
  std::uint32_t digest = 0;
  std::string error;  ///< SimError text; empty when the run completed
};

/// CRC-32 over every simulated output, doubles by their bits.
[[nodiscard]] std::uint32_t digest(const RunResult& r,
                                   std::uint64_t background_bytes) {
  std::vector<std::uint64_t> v = {
      r.accesses, std::bit_cast<std::uint64_t>(r.avg_latency),
      std::bit_cast<std::uint64_t>(r.avg_read_latency),
      std::bit_cast<std::uint64_t>(r.avg_write_latency),
      std::bit_cast<std::uint64_t>(r.avg_on_latency),
      std::bit_cast<std::uint64_t>(r.avg_off_latency),
      std::bit_cast<std::uint64_t>(r.p99_latency),
      std::bit_cast<std::uint64_t>(r.on_package_fraction),
      std::bit_cast<std::uint64_t>(r.off_row_hit_rate),
      std::bit_cast<std::uint64_t>(r.on_queue_delay),
      std::bit_cast<std::uint64_t>(r.off_queue_delay), r.swaps,
      r.migrated_bytes, r.demand_bytes_on, r.demand_bytes_off,
      r.os_stall_cycles, r.end_time, r.faults_injected, r.faults_dropped,
      r.chunk_retries, r.chunks_dropped, r.swap_aborts, r.audits,
      r.degraded ? 1u : 0u, r.degraded_at, r.ras_frames_pending,
      r.ras_spares_left, r.ras_healthy_frames,
      std::bit_cast<std::uint64_t>(r.energy_pj),
      std::bit_cast<std::uint64_t>(r.energy_off_only_pj), background_bytes,
      r.ras.demand_corrected, r.ras.demand_uncorrectable, r.ras.scrub_probes,
      r.ras.scrub_corrected, r.ras.scrub_uncorrectable,
      r.ras.scrub_collisions, r.ras.stuck_faults, r.ras.frames_retired,
      r.ras.frames_pinned, r.ras.evacuations, r.ras.evacuation_bytes,
      r.ras.spares_used};
  for (const fault::FaultEvent& e : r.fault_events)
    v.insert(v.end(), {static_cast<std::uint64_t>(e.site), e.opportunity,
                       e.detail});
  for (const ras::RetirementEvent& e : r.ras_retirements)
    v.insert(v.end(), {e.at, e.frame});
  return snap::crc32(reinterpret_cast<const std::uint8_t*>(v.data()),
                     v.size() * sizeof(std::uint64_t));
}

void finish_run(CellRun& run, MemSim& sim, const RunResult& r) {
  run.result = r;
  run.background_bytes =
      sim.on_package().background_bytes() +
      sim.off_package().background_bytes();
  run.digest = digest(r, run.background_bytes);
}

/// One cell-run; a SimError is recorded in the run, never propagated.
template <class Body>
CellRun run_cell(const Cell& c, Body&& body) {
  CellRun run;
  try {
    MemSim sim(c.cfg);
    auto gen = c.info->make(c.seed);
    body(run, sim, *gen);
  } catch (const fault::SimError& e) {
    run.error = e.what();
  }
  return run;
}

[[nodiscard]] CellRun run_plain(const Cell& c, std::uint64_t n) {
  return run_cell(c, [n](CellRun& run, MemSim& sim, SyntheticWorkload& gen) {
    const auto t0 = Clock::now();
    replay(sim, gen, n);
    run.replay_s = seconds_since(t0);
    finish_run(run, sim, sim.result());
  });
}

struct TracedRun {
  CellRun run;
  std::uint64_t accesses = 0;
  double queue_depth = 0;
};

[[nodiscard]] TracedRun run_traced(const Cell& c, std::uint64_t n,
                                   Tracer& tr) {
  TracedRun out;
  out.run = run_cell(c, [&](CellRun& run, MemSim& sim,
                            SyntheticWorkload& gen) {
    Mirror m(sim, c.cfg, tr);
    const auto t0 = Clock::now();
    replay(m, gen, n);
    run.replay_s = seconds_since(t0);
    finish_run(run, sim, m.result());
    out.accesses = m.accesses();
    out.queue_depth = m.mean_queue_depth();
  });
  return out;
}

/// One set-up sample: the time to construct MemSim plus the generator.
/// One construction per sample, never a loop that runs for a set time: a
/// repeat count that depends on timing would change the heap's history,
/// and with it the peak RSS, from run to run.
[[nodiscard]] double setup_sample(const Cell& c) {
  const auto t0 = Clock::now();
  const MemSim sim(c.cfg);
  const auto gen = c.info->make(c.seed);
  return seconds_since(t0);
}

// --- DRAM scheduler ablation -------------------------------------------------

/// 64 + 64 reads to two rows of one off-package bank, interleaved and all
/// arriving at cycle 0; returns the cycle the last one finishes. FR-FCFS
/// can serve each row's hits back to back, FCFS must reopen a row for
/// every request, so FR-FCFS must finish first.
[[nodiscard]] Cycle two_row_burst_cycles(SchedulerPolicy policy) {
  DramSystem sys = DramSystem::make(Region::OffPackage, policy);
  const AddressMapping map(sys.num_channels(), sys.timing());
  const DramCoordinates home = map.decode(0);
  std::array<std::vector<MachAddr>, 2> rows;
  std::uint64_t other_row = 0;
  for (MachAddr a = 0; rows[1].size() < 64 && a < 1 * GiB; a += 64) {
    const DramCoordinates c = map.decode(a);
    if (c.channel != home.channel || c.bank != home.bank) continue;
    if (c.row == home.row) {
      if (rows[0].size() < 64) rows[0].push_back(a);
    } else if (rows[1].empty() || c.row == other_row) {
      other_row = c.row;
      rows[1].push_back(a);
    }
  }
  HMM_CHECK(rows[0].size() == 64 && rows[1].size() == 64,
            "could not find 64 lines in each of two rows of one bank");
  for (std::size_t i = 0; i < 64; ++i)
    for (const auto& row : rows)
      sys.submit(row[i], 64, AccessType::Read, Priority::Demand, 0);
  return sys.drain_all(0);
}

// --- the report --------------------------------------------------------------

/// Named values with units, written as {"name": {"value": v, "unit": u}}.
class Metrics {
 public:
  void add(std::string name, double value, const char* unit) {
    entries_.push_back({std::move(name), value, unit});
  }
  void write(runner::JsonWriter& j) const {
    j.begin_object();
    for (const Entry& e : entries_)
      j.key(e.name).begin_object().kv("value", e.value).kv("unit", e.unit)
          .end_object();
    j.end_object();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

struct Report {
  Metrics metrics;  ///< host measurements
  Metrics outputs;  ///< deterministic simulated outputs
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts one cell-run; `error` empty means it passed.
  void cell_run(const Cell& c, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    errors.push_back(c.trace + " x " + c.cfg.scheme + ": " + error);
  }
};

/// Plain repetitions, round-robin over the cells, for at least `seconds`
/// and `min_reps`. A rep fails on a SimError or a digest that differs
/// from the cell's first rep. peak_rss_mb is read after the first round:
/// later rounds grow the heap by fragmentation alone, by an amount that
/// depends on how many rounds fit in `seconds`.
[[nodiscard]] std::vector<std::vector<CellRun>> plain_reps(
    const std::vector<Cell>& cells, std::uint64_t n, double seconds,
    unsigned min_reps, Report& rep) {
  std::vector<std::vector<CellRun>> plain(cells.size());
  const auto t0 = Clock::now();
  for (unsigned r = 0; r < min_reps || seconds_since(t0) < seconds; ++r) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const double setup_s = setup_sample(cells[i]);
      CellRun run = run_plain(cells[i], n);
      run.setup_s = setup_s;
      if (run.error.empty() && r > 0 && run.digest != plain[i][0].digest)
        run.error = "result digest differs between reps";
      rep.cell_run(cells[i], run.error);
      plain[i].push_back(std::move(run));
    }
    if (r == 0) rep.metrics.add("peak_rss_mb", peak_rss_kib() / 1024.0, "MiB");
  }
  return plain;
}

struct ReplayTimes {
  double best_s = 0;    ///< sum over cells of the fastest rep
  double median_s = 0;  ///< sum over cells of the median rep
};

/// acc_per_s, setup_s, and the reps' own spread. setup_s
/// sums each cell's median construction sample; the samples are spread
/// over the whole run (one before each rep), because the host's speed
/// drifts over seconds.
[[nodiscard]] ReplayTimes add_plain_metrics(
    const std::vector<Cell>& cells,
    const std::vector<std::vector<CellRun>>& plain, std::uint64_t n,
    Report& rep) {
  ReplayTimes t;
  double worst_spread = 0;
  double setup_s = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<double> replay;
    std::vector<double> setup;
    for (const CellRun& r : plain[i]) {
      setup.push_back(r.setup_s);
      if (r.error.empty()) replay.push_back(r.replay_s);
    }
    setup_s += median(setup);
    if (replay.empty()) continue;
    const double best = *std::min_element(replay.begin(), replay.end());
    t.best_s += best;
    t.median_s += median(replay);
    worst_spread = std::max(worst_spread, median(replay) / best - 1);
  }
  const auto accesses = static_cast<double>(n * cells.size());
  rep.metrics.add("acc_per_s", t.best_s > 0 ? accesses / t.best_s : 0, "1/s");
  rep.metrics.add("setup_s", setup_s, "s");
  rep.metrics.add("bench.acc_per_s_median",
                  t.median_s > 0 ? accesses / t.median_s : 0, "1/s");
  rep.metrics.add("bench.rep_spread", worst_spread, "frac");
  return t;
}

/// The simulated outputs of each cell's first rep, summed or
/// access-weighted over the cells.
void add_outputs(const std::vector<std::vector<CellRun>>& plain,
                 Report& rep) {
  std::vector<std::uint32_t> digests;
  double measured = 0, amat = 0, on_frac = 0, p99 = 0, end = 0, swaps = 0,
         migrated = 0, demand = 0, background = 0, row_hit = 0, delay = 0,
         corrected = 0, uncorrectable = 0, probes = 0, retired = 0,
         audits = 0;
  const auto cells = static_cast<double>(plain.size());
  for (const std::vector<CellRun>& runs : plain) {
    const CellRun& first = runs.front();
    const RunResult& r = first.result;
    const auto acc = static_cast<double>(r.accesses);
    digests.push_back(first.digest);
    measured += acc;
    amat += r.avg_latency * acc;
    on_frac += r.on_package_fraction * acc;
    p99 = std::max(p99, r.p99_latency);
    end += static_cast<double>(r.end_time);
    swaps += static_cast<double>(r.swaps);
    migrated += static_cast<double>(r.migrated_bytes);
    demand += static_cast<double>(r.demand_bytes_on + r.demand_bytes_off);
    background += static_cast<double>(first.background_bytes);
    row_hit += r.off_row_hit_rate / cells;
    delay += r.off_queue_delay / cells;
    corrected +=
        static_cast<double>(r.ras.demand_corrected + r.ras.scrub_corrected);
    uncorrectable += static_cast<double>(r.ras.demand_uncorrectable +
                                         r.ras.scrub_uncorrectable);
    probes += static_cast<double>(r.ras.scrub_probes);
    retired += static_cast<double>(r.ras.frames_retired);
    audits += static_cast<double>(r.audits);
  }
  const double mib = static_cast<double>(MiB);
  const double per_acc = measured > 0 ? 1 / measured : 0;
  Metrics& o = rep.outputs;
  o.add("sim.result_crc",
        snap::crc32(reinterpret_cast<const std::uint8_t*>(digests.data()),
                    digests.size() * sizeof(std::uint32_t)),
        "crc");
  o.add("sim.amat_cycles", amat * per_acc, "cycles");
  o.add("sim.p99_cycles", p99, "cycles");
  o.add("sim.end_cycles", end, "cycles");
  o.add("schemes.swaps", swaps, "count");
  o.add("schemes.migrated_mb", migrated / mib, "MiB");
  o.add("schemes.on_frac", on_frac * per_acc, "frac");
  o.add("dram.demand_mb", demand / mib, "MiB");
  o.add("dram.background_mb", background / mib, "MiB");
  o.add("dram.off.row_hit_rate", row_hit, "frac");
  o.add("dram.off.queue_delay_cycles", delay, "cycles");
  o.add("ras.corrected", corrected, "count");
  o.add("ras.uncorrectable", uncorrectable, "count");
  o.add("ras.scrub_probes", probes, "count");
  o.add("ras.frames_retired", retired, "count");
  o.add("fault.audits", audits, "count");
}

/// The FR-FCFS vs FCFS ablation; a run whose FR-FCFS is not faster is
/// not correct.
[[nodiscard]] bool add_ablation(Report& rep) {
  const Cycle fcfs = two_row_burst_cycles(SchedulerPolicy::Fcfs);
  const Cycle frfcfs = two_row_burst_cycles(SchedulerPolicy::FrFcfs);
  rep.outputs.add("dram.frfcfs_speedup",
                  static_cast<double>(fcfs) / static_cast<double>(frfcfs),
                  "x");
  if (frfcfs < fcfs) return true;
  rep.errors.push_back("FR-FCFS is not faster than FCFS on a two-row burst (" +
                       std::to_string(frfcfs) + " vs " +
                       std::to_string(fcfs) + " cycles)");
  return false;
}

/// Traced reps of every cell through the mirror: per-layer host time, the
/// exact call counts, and the traced-vs-plain digest check. Four reps
/// sample as many accesses as one rep of a cell four times as long.
void add_traced(const std::vector<Cell>& cells,
                const std::vector<std::vector<CellRun>>& plain,
                std::uint64_t n, const ReplayTimes& times,
                const std::string& chrome_trace, Report& rep) {
  constexpr int kTracedReps = 4;
  Tracer tr;
  double wall_s = 0;
  double accesses = 0;
  double depth = 0;
  for (int k = 0; k < kTracedReps; ++k) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      tr.calibrate();
      TracedRun t = run_traced(cells[i], n, tr);
      if (t.run.error.empty() && t.run.digest != plain[i][0].digest)
        t.run.error = "traced digest differs from plain";
      rep.cell_run(cells[i], t.run.error);
      wall_s += t.run.replay_s;
      accesses += static_cast<double>(t.accesses);
      depth += t.queue_depth * static_cast<double>(t.accesses);
    }
  }
  accesses = std::max(accesses, 1.0);
  const double wall_ns = wall_s * 1e9;

  // Per-layer self time: the layer is the span name's prefix.
  constexpr std::array<const char*, 6> kLayers = {"sim",  "trace", "schemes",
                                                  "dram", "ras",   "fault"};
  double layer_sum = 0;
  for (const char* layer : kLayers) {
    double ns = 0;
    for (unsigned nm = 0; nm < kCalibrate; ++nm) {
      const std::string name = kNames[nm];
      if (name.substr(0, name.find('.')) == layer)
        ns += tr.total(static_cast<Name>(nm)).all_calls_ns();
    }
    rep.metrics.add(std::string(layer) + ".share", ns / wall_ns, "frac");
    layer_sum += ns / wall_ns;
  }
  const auto ns = [&](Name nm) { return tr.total(nm).per_call_ns(); };
  Metrics& m = rep.metrics;
  m.add("trace.next.ns", ns(kNext), "ns");
  m.add("schemes.on_access.ns", ns(kOnAccess), "ns");
  m.add("schemes.bg_completion.ns", ns(kBgCompletion), "ns");
  m.add("dram.submit.ns", ns(kSubmit), "ns");
  m.add("dram.drain.ns", ns(kDrain), "ns");
  m.add("dram.take.ns", ns(kTake), "ns");
  m.add("sim.completion.ns", ns(kCompletion), "ns");
  m.add("sim.step_self.ns", ns(kStep), "ns");
  const Tracer::Total& stall = tr.total(kStall);
  m.add("sim.stall.ms",
        stall.timed_calls > 0 ? stall.incl_ns / stall.timed_calls / 1e6 : 0,
        "ms");
  m.add("ras.probe.ns", ns(kRasProbe), "ns");
  m.add("fault.audit.ns_per_acc",
        (tr.total(kAudit).all_calls_ns() + tr.total(kRasSweep).all_calls_ns()) /
            accesses,
        "ns");
  // Each traced rep is compared with the plain reps' median, not their
  // best: host noise only slows a run, and the best of many plain reps
  // would make any single rep look slow.
  m.add("bench.trace_overhead",
        times.median_s > 0 ? wall_s / (kTracedReps * times.median_s) - 1 : 0,
        "frac");
  m.add("bench.layer_sum", layer_sum, "frac");

  const auto per_acc = [&](Name nm) {
    return static_cast<double>(tr.total(nm).calls) / accesses;
  };
  Metrics& o = rep.outputs;
  o.add("schemes.bg_completion.per_acc", per_acc(kBgCompletion), "1/acc");
  o.add("dram.drain.per_acc", per_acc(kDrain), "1/acc");
  o.add("dram.queue_depth", depth / accesses, "req");
  o.add("sim.stall.per_acc", per_acc(kStall), "1/acc");
  o.add("ras.probe.per_acc", per_acc(kRasProbe), "1/acc");
  o.add("fault.audit.per_acc", per_acc(kAudit), "1/acc");

  if (!chrome_trace.empty() && !tr.write_chrome(chrome_trace))
    std::fprintf(stderr, "could not write %s\n", chrome_trace.c_str());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::uint64_t accesses = 240'000;
  double seconds = 10;
  unsigned min_reps = 3;
  bool trace = false;
  std::string chrome_trace;
};

[[nodiscard]] bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--accesses") {
      o.accesses = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (k == "--min-reps") {
      o.min_reps = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (k == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (k == "--chrome-trace") {
      o.chrome_trace = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.accesses >= 2 &&
         o.min_reps >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: throughput --workload NAME [--seed S] "
                 "[--accesses N] [--seconds T] [--min-reps R] "
                 "[--trace 0|1] [--chrome-trace PATH]\n");
    return 2;
  }
  const std::vector<Cell> cells = workload_cells(opt.workload, opt.seed);
  if (cells.empty()) {
    std::fprintf(stderr,
                 "unknown workload '%s' (swap-skewed, cache-stream, "
                 "stall-drain, ras-media)\n",
                 opt.workload.c_str());
    return 2;
  }
  Report rep;
  const auto plain =
      plain_reps(cells, opt.accesses, opt.seconds, opt.min_reps, rep);
  const ReplayTimes times = add_plain_metrics(cells, plain, opt.accesses, rep);
  add_outputs(plain, rep);
  const bool ablation_ok = add_ablation(rep);
  if (opt.trace)
    add_traced(cells, plain, opt.accesses, times, opt.chrome_trace, rep);

  runner::JsonWriter j(std::cout);
  j.begin_object()
      .kv("workload", opt.workload)
      .kv("seed", opt.seed)
      .kv("cells", std::uint64_t{cells.size()})
      .kv("accesses", opt.accesses)
      .kv("reps", std::uint64_t{plain[0].size()})
      .kv("correct", rep.failed == 0 && ablation_ok)
      .kv("attempted", rep.attempted)
      .kv("failed", rep.failed);
  j.key("errors").begin_array();
  for (const std::string& e : rep.errors) j.value(e);
  j.end_array();
  j.key("metrics");
  rep.metrics.write(j);
  j.key("outputs");
  rep.outputs.write(j);
  j.end_object();
  return 0;
}
