#include "runner/journal.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "sim/checkpoint.hh"

namespace hmm::runner {

namespace {

void encode_result(snap::Writer& w, const RunResult& r) {
  w.u64(r.accesses);
  w.f64(r.avg_latency);
  w.f64(r.avg_read_latency);
  w.f64(r.avg_write_latency);
  w.f64(r.avg_on_latency);
  w.f64(r.avg_off_latency);
  w.f64(r.p99_latency);
  w.f64(r.on_package_fraction);
  w.f64(r.off_row_hit_rate);
  w.f64(r.on_queue_delay);
  w.f64(r.off_queue_delay);
  w.u64(r.swaps);
  w.u64(r.migrated_bytes);
  w.u64(r.demand_bytes_on);
  w.u64(r.demand_bytes_off);
  w.u64(r.os_stall_cycles);
  w.u64(r.end_time);
  w.u64(r.faults_injected);
  w.u64(r.chunk_retries);
  w.u64(r.chunks_dropped);
  w.u64(r.swap_aborts);
  w.u64(r.audits);
  w.b(r.degraded);
  w.u64(r.degraded_at);
  w.u64(r.fault_events.size());
  for (const fault::FaultEvent& e : r.fault_events) {
    w.u8(static_cast<std::uint8_t>(e.site));
    w.u64(e.opportunity);
    w.u64(e.detail);
  }
  w.f64(r.energy_pj);
  w.f64(r.energy_off_only_pj);
  w.u64(r.faults_dropped);
  w.b(r.ras_enabled);
  w.u64(r.ras.demand_corrected);
  w.u64(r.ras.demand_uncorrectable);
  w.u64(r.ras.scrub_probes);
  w.u64(r.ras.scrub_corrected);
  w.u64(r.ras.scrub_uncorrectable);
  w.u64(r.ras.scrub_collisions);
  w.u64(r.ras.stuck_faults);
  w.u64(r.ras.frames_retired);
  w.u64(r.ras.frames_pinned);
  w.u64(r.ras.evacuations);
  w.u64(r.ras.evacuation_bytes);
  w.u64(r.ras.spares_used);
  w.u64(r.ras_frames_pending);
  w.u64(r.ras_spares_left);
  w.u64(r.ras_healthy_frames);
  w.u64(r.ras_retirements.size());
  for (const ras::RetirementEvent& e : r.ras_retirements) {
    w.u64(e.at);
    w.u64(e.frame);
  }
}

void decode_result(snap::Reader& rd, RunResult& r) {
  r.accesses = rd.u64();
  r.avg_latency = rd.f64();
  r.avg_read_latency = rd.f64();
  r.avg_write_latency = rd.f64();
  r.avg_on_latency = rd.f64();
  r.avg_off_latency = rd.f64();
  r.p99_latency = rd.f64();
  r.on_package_fraction = rd.f64();
  r.off_row_hit_rate = rd.f64();
  r.on_queue_delay = rd.f64();
  r.off_queue_delay = rd.f64();
  r.swaps = rd.u64();
  r.migrated_bytes = rd.u64();
  r.demand_bytes_on = rd.u64();
  r.demand_bytes_off = rd.u64();
  r.os_stall_cycles = rd.u64();
  r.end_time = rd.u64();
  r.faults_injected = rd.u64();
  r.chunk_retries = rd.u64();
  r.chunks_dropped = rd.u64();
  r.swap_aborts = rd.u64();
  r.audits = rd.u64();
  r.degraded = rd.b();
  r.degraded_at = rd.u64();
  r.fault_events.assign(rd.u64(), fault::FaultEvent{});
  for (fault::FaultEvent& e : r.fault_events) {
    e.site = static_cast<fault::FaultSite>(rd.u8());
    e.opportunity = rd.u64();
    e.detail = rd.u64();
  }
  r.energy_pj = rd.f64();
  r.energy_off_only_pj = rd.f64();
  r.faults_dropped = rd.u64();
  r.ras_enabled = rd.b();
  r.ras.demand_corrected = rd.u64();
  r.ras.demand_uncorrectable = rd.u64();
  r.ras.scrub_probes = rd.u64();
  r.ras.scrub_corrected = rd.u64();
  r.ras.scrub_uncorrectable = rd.u64();
  r.ras.scrub_collisions = rd.u64();
  r.ras.stuck_faults = rd.u64();
  r.ras.frames_retired = rd.u64();
  r.ras.frames_pinned = rd.u64();
  r.ras.evacuations = rd.u64();
  r.ras.evacuation_bytes = rd.u64();
  r.ras.spares_used = rd.u64();
  r.ras_frames_pending = rd.u64();
  r.ras_spares_left = rd.u64();
  r.ras_healthy_frames = rd.u64();
  r.ras_retirements.assign(rd.u64(), ras::RetirementEvent{});
  for (ras::RetirementEvent& e : r.ras_retirements) {
    e.at = rd.u64();
    e.frame = rd.u64();
  }
}

/// Minimal JSON string escaping for the human-readable key/status fields.
std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

}  // namespace

void encode_cell(snap::Writer& w, const CellResult& cell) {
  w.begin_section(snap::tag('C', 'E', 'L', 'L'));
  w.str(cell.key);
  w.u64(cell.seed);
  w.b(cell.ok);
  w.str(cell.error);
  w.str(cell.status);
  w.u32(cell.attempts);
  w.f64(cell.wall_seconds);
  w.u64(cell.accesses_replayed);
  w.f64(cell.accesses_per_sec);
  encode_result(w, cell.result);
  w.end_section();
}

CellResult decode_cell(snap::Reader& r) {
  CellResult cell;
  r.begin_section(snap::tag('C', 'E', 'L', 'L'));
  cell.key = r.str();
  cell.seed = r.u64();
  cell.ok = r.b();
  cell.error = r.str();
  cell.status = r.str();
  cell.attempts = r.u32();
  cell.wall_seconds = r.f64();
  cell.accesses_replayed = r.u64();
  cell.accesses_per_sec = r.f64();
  decode_result(r, cell.result);
  r.end_section();
  return cell;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xF];
  }
  return s;
}

bool from_hex(const std::string& hex, std::vector<std::uint8_t>& out) {
  if (hex.size() % 2 != 0) return false;
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::string sanitize_key(const std::string& key) {
  std::string s;
  s.reserve(key.size());
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '.';
    s += ok ? c : '_';
  }
  return s.empty() ? std::string("cell") : s;
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  std::ifstream is(path_);
  if (!is) return;
  std::string line;
  while (std::getline(is, line)) {
    const std::string marker = "\"blob\":\"";
    const std::size_t at = line.find(marker);
    if (at == std::string::npos) break;  // torn or foreign tail: stop here
    const std::size_t start = at + marker.size();
    const std::size_t end = line.find('"', start);
    if (end == std::string::npos) break;
    std::vector<std::uint8_t> blob;
    if (!from_hex(line.substr(start, end - start), blob)) break;
    try {
      snap::Reader r(blob);
      recovered_.push_back(decode_cell(r));
    } catch (const fault::SimError&) {
      break;  // CRC failure on the tail line: treat as torn
    }
    lines_.push_back(line);
  }
}

bool Journal::append(const CellResult& cell) {
  if (path_.empty()) return true;
  snap::Writer w;
  encode_cell(w, cell);
  std::ostringstream line;
  line << "{\"key\":\"" << escape_json(cell.key) << "\",\"status\":\""
       << escape_json(cell.status) << "\",\"blob\":\"" << to_hex(w.buffer())
       << "\"}";
  lines_.push_back(line.str());
  std::string body;
  for (const std::string& l : lines_) {
    body += l;
    body += '\n';
  }
  return atomic_write_file(path_, body.data(), body.size());
}

void Journal::remove() noexcept {
  if (path_.empty()) return;
  std::remove(path_.c_str());
}

}  // namespace hmm::runner
