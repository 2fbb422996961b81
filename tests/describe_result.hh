// One text form of a whole RunResult, for tests that pin a result to a
// golden string or claim two results are bit-identical.
#pragma once

#include <cstdio>
#include <string>

#include "common/snapshot.hh"
#include "sim/run_result.hh"

namespace hmm {

// Every RunResult field, one "name value" line each (doubles at full
// precision, the fault-event list folded into a CRC), so one string pins
// the whole result and two equal strings mean two equal results.
[[nodiscard]] inline std::string describe(const RunResult& r) {
  std::string s;
  char buf[96];
  const auto u = [&](const char* k, std::uint64_t v) {
    std::snprintf(buf, sizeof buf, "%s %llu\n", k,
                  static_cast<unsigned long long>(v));
    s += buf;
  };
  const auto d = [&](const char* k, double v) {
    std::snprintf(buf, sizeof buf, "%s %.17g\n", k, v);
    s += buf;
  };
  u("accesses", r.accesses);
  d("avg_latency", r.avg_latency);
  d("avg_read_latency", r.avg_read_latency);
  d("avg_write_latency", r.avg_write_latency);
  d("avg_on_latency", r.avg_on_latency);
  d("avg_off_latency", r.avg_off_latency);
  d("p99_latency", r.p99_latency);
  d("on_package_fraction", r.on_package_fraction);
  d("off_row_hit_rate", r.off_row_hit_rate);
  d("on_queue_delay", r.on_queue_delay);
  d("off_queue_delay", r.off_queue_delay);
  u("swaps", r.swaps);
  u("migrated_bytes", r.migrated_bytes);
  u("demand_bytes_on", r.demand_bytes_on);
  u("demand_bytes_off", r.demand_bytes_off);
  u("os_stall_cycles", r.os_stall_cycles);
  u("end_time", r.end_time);
  u("faults_injected", r.faults_injected);
  u("faults_dropped", r.faults_dropped);
  u("chunk_retries", r.chunk_retries);
  u("chunks_dropped", r.chunks_dropped);
  u("swap_aborts", r.swap_aborts);
  u("audits", r.audits);
  u("degraded", r.degraded ? 1 : 0);
  u("degraded_at", r.degraded_at);
  snap::Writer ev;
  for (const fault::FaultEvent& e : r.fault_events) {
    ev.u32(static_cast<std::uint32_t>(e.site));
    ev.u64(e.opportunity);
    ev.u64(e.detail);
  }
  u("fault_events", r.fault_events.size());
  u("fault_events_crc", snap::crc32(ev.buffer().data(), ev.buffer().size()));
  u("ras_enabled", r.ras_enabled ? 1 : 0);
  u("ras.demand_corrected", r.ras.demand_corrected);
  u("ras.demand_uncorrectable", r.ras.demand_uncorrectable);
  u("ras.scrub_probes", r.ras.scrub_probes);
  u("ras.scrub_corrected", r.ras.scrub_corrected);
  u("ras.scrub_uncorrectable", r.ras.scrub_uncorrectable);
  u("ras.scrub_collisions", r.ras.scrub_collisions);
  u("ras.stuck_faults", r.ras.stuck_faults);
  u("ras.frames_retired", r.ras.frames_retired);
  u("ras.frames_pinned", r.ras.frames_pinned);
  u("ras.evacuations", r.ras.evacuations);
  u("ras.evacuation_bytes", r.ras.evacuation_bytes);
  u("ras.spares_used", r.ras.spares_used);
  u("ras_frames_pending", r.ras_frames_pending);
  u("ras_spares_left", r.ras_spares_left);
  u("ras_healthy_frames", r.ras_healthy_frames);
  s += "ras_retirements";
  for (const ras::RetirementEvent& e : r.ras_retirements) {
    std::snprintf(buf, sizeof buf, " %llu@%llu",
                  static_cast<unsigned long long>(e.frame),
                  static_cast<unsigned long long>(e.at));
    s += buf;
  }
  s += "\n";
  d("energy_pj", r.energy_pj);
  d("energy_off_only_pj", r.energy_off_only_pj);
  return s;
}

}  // namespace hmm
