#include "runner/result_sink.hh"

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/stats.hh"
#include "runner/json.hh"
#include "sim/checkpoint.hh"

namespace hmm::runner {

ResultSink::ResultSink(std::string bench) : bench_(std::move(bench)) {}

void ResultSink::set_param(const std::string& name, const std::string& value) {
  params_.emplace_back(name, value);
}

void ResultSink::set_param(const std::string& name, std::uint64_t value) {
  params_.emplace_back(name, std::to_string(value));
}

void ResultSink::add_derived(const std::string& cell_key,
                             const std::string& field, double value) {
  derived_[cell_key][field] = value;
}

std::string ResultSink::results_dir() {
  if (const char* e = std::getenv("HMM_RESULTS_DIR")) return e;
  return "results";
}

std::string ResultSink::write_json(const std::vector<CellResult>& cells) const {
  const std::string dir = results_dir();
  if (dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  const std::string path = dir + "/" + bench_ + ".json";
  // Render to memory first: the file itself is written atomically (tmp +
  // fsync + rename), so a crash mid-sweep can never leave a torn artifact
  // that a later --resume comparison would choke on.
  std::ostringstream os;

  // Cross-cell aggregation (exercises the stats merge path): latency and
  // per-job wall-time summaries over the successful cells.
  RunningStat lat, wall;
  std::uint64_t total_replayed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retried = 0;
  std::uint64_t crashed = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t resumed = 0;
  for (const CellResult& c : cells) {
    RunningStat one;
    one.add(c.wall_seconds);
    wall.merge(one);
    if (c.attempts > 1) ++retried;
    if (c.resumed) ++resumed;
    if (c.status == "crashed" || c.status == "error") ++crashed;
    if (c.status == "interrupted") ++interrupted;
    if (!c.ok) {
      ++failed;
      continue;
    }
    lat.add(c.result.avg_latency);
    total_replayed += c.accesses_replayed;
  }

  JsonWriter j(os);
  j.begin_object();
  j.kv("bench", bench_);
  j.kv("schema_version", 4);
  j.key("params").begin_object();
  for (const auto& [k, v] : params_) j.kv(k, v);
  j.end_object();

  j.key("cells").begin_array();
  for (const CellResult& c : cells) {
    j.begin_object();
    j.kv("key", c.key);
    j.kv("seed", c.seed);
    j.kv("ok", c.ok);
    j.kv("status", c.status);
    j.kv("attempts", static_cast<std::uint64_t>(c.attempts));
    if (c.resumed) j.kv("resumed", true);
    if (!c.ok) j.kv("error", c.error);
    j.kv("wall_seconds", c.wall_seconds);  // non-deterministic by nature
    if (c.ok) {
      const RunResult& r = c.result;
      // Simulator throughput, not simulated performance: how fast this host
      // replayed the cell, warm-up included (schema v4). Non-deterministic
      // like wall_seconds; downstream diffing must ignore it.
      j.kv("accesses_per_sec", c.accesses_per_sec);
      j.key("metrics").begin_object();
      j.kv("accesses", r.accesses);
      j.kv("avg_latency", r.avg_latency);
      j.kv("avg_read_latency", r.avg_read_latency);
      j.kv("avg_write_latency", r.avg_write_latency);
      j.kv("p99_latency", r.p99_latency);
      j.kv("on_package_fraction", r.on_package_fraction);
      j.kv("off_row_hit_rate", r.off_row_hit_rate);
      j.kv("swaps", r.swaps);
      j.kv("migrated_bytes", r.migrated_bytes);
      j.kv("demand_bytes_on", r.demand_bytes_on);
      j.kv("demand_bytes_off", r.demand_bytes_off);
      j.kv("energy_pj", r.energy_pj);
      j.kv("normalized_power", r.normalized_power());
      if (r.faults_injected > 0 || r.audits > 0) {
        j.kv("faults_injected", r.faults_injected);
        if (r.faults_dropped > 0)
          j.kv("faults_dropped", r.faults_dropped);
        j.kv("chunk_retries", r.chunk_retries);
        j.kv("chunks_dropped", r.chunks_dropped);
        j.kv("swap_aborts", r.swap_aborts);
        j.kv("audits", r.audits);
        j.kv("degraded", r.degraded);
        if (r.degraded)
          j.kv("degraded_at", static_cast<std::uint64_t>(r.degraded_at));
      }
      if (r.ras_enabled) {
        j.key("ras").begin_object();
        j.kv("demand_corrected", r.ras.demand_corrected);
        j.kv("demand_uncorrectable", r.ras.demand_uncorrectable);
        j.kv("scrub_probes", r.ras.scrub_probes);
        j.kv("scrub_corrected", r.ras.scrub_corrected);
        j.kv("scrub_uncorrectable", r.ras.scrub_uncorrectable);
        j.kv("scrub_collisions", r.ras.scrub_collisions);
        j.kv("stuck_faults", r.ras.stuck_faults);
        j.kv("frames_retired", r.ras.frames_retired);
        j.kv("frames_pinned", r.ras.frames_pinned);
        j.kv("frames_pending", r.ras_frames_pending);
        j.kv("evacuations", r.ras.evacuations);
        j.kv("evacuation_bytes", r.ras.evacuation_bytes);
        j.kv("spares_used", r.ras.spares_used);
        j.kv("spares_left", r.ras_spares_left);
        j.kv("healthy_frames", r.ras_healthy_frames);
        if (!r.ras_retirements.empty()) {
          j.key("retirements").begin_array();
          for (const ras::RetirementEvent& e : r.ras_retirements) {
            j.begin_object();
            j.kv("at", static_cast<std::uint64_t>(e.at));
            j.kv("frame", static_cast<std::uint64_t>(e.frame));
            j.end_object();
          }
          j.end_array();
        }
        j.end_object();
      }
      j.end_object();
      if (!r.fault_events.empty()) {
        j.key("fault_events").begin_array();
        for (const fault::FaultEvent& e : r.fault_events) {
          j.begin_object();
          j.kv("site", to_string(e.site));
          j.kv("opportunity", e.opportunity);
          j.kv("detail", e.detail);
          j.end_object();
        }
        j.end_array();
      }
    }
    if (const auto it = derived_.find(c.key); it != derived_.end()) {
      j.key("derived").begin_object();
      for (const auto& [field, value] : it->second) j.kv(field, value);
      j.end_object();
    }
    j.end_object();
  }
  j.end_array();

  j.key("summary").begin_object();
  j.kv("cells", static_cast<std::uint64_t>(cells.size()));
  j.kv("failed", failed);
  j.kv("retried", retried);
  j.kv("crashed", crashed);
  j.kv("interrupted", interrupted);
  j.kv("resumed", resumed);
  if (lat.count() > 0) {
    j.kv("avg_latency_mean", lat.mean());
    j.kv("avg_latency_min", lat.min());
    j.kv("avg_latency_max", lat.max());
  }
  j.kv("wall_seconds_total", wall.sum());  // non-deterministic
  if (wall.sum() > 0)
    j.kv("accesses_per_sec_total",
         static_cast<double>(total_replayed) / wall.sum());
  j.end_object();
  j.end_object();
  const std::string body = os.str();
  if (!atomic_write_file(path, body.data(), body.size())) return "";
  return path;
}

}  // namespace hmm::runner
