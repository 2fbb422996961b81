#include "runner/journal.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "sim/checkpoint.hh"

namespace hmm::runner {

namespace {

template <class Ar>
void cell_io(Ar& ar, CellResult& cell) {
  RunResult& r = cell.result;
  snap::section(ar, snap::tag('C', 'E', 'L', 'L'), [&] {
    snap::str(ar, cell.key);
    snap::u64(ar, cell.seed);
    snap::b(ar, cell.ok);
    snap::str(ar, cell.error);
    snap::str(ar, cell.status);
    snap::u32(ar, cell.attempts);
    snap::f64(ar, cell.wall_seconds);
    snap::u64(ar, cell.accesses_replayed);
    snap::f64(ar, cell.accesses_per_sec);
    snap::u64(ar, r.accesses);
    snap::f64(ar, r.avg_latency);
    snap::f64(ar, r.avg_read_latency);
    snap::f64(ar, r.avg_write_latency);
    snap::f64(ar, r.avg_on_latency);
    snap::f64(ar, r.avg_off_latency);
    snap::f64(ar, r.p99_latency);
    snap::f64(ar, r.on_package_fraction);
    snap::f64(ar, r.off_row_hit_rate);
    snap::f64(ar, r.on_queue_delay);
    snap::f64(ar, r.off_queue_delay);
    snap::u64(ar, r.swaps);
    snap::u64(ar, r.migrated_bytes);
    snap::u64(ar, r.demand_bytes_on);
    snap::u64(ar, r.demand_bytes_off);
    snap::u64(ar, r.os_stall_cycles);
    snap::u64(ar, r.end_time);
    snap::u64(ar, r.faults_injected);
    snap::u64(ar, r.chunk_retries);
    snap::u64(ar, r.chunks_dropped);
    snap::u64(ar, r.swap_aborts);
    snap::u64(ar, r.audits);
    snap::b(ar, r.degraded);
    snap::u64(ar, r.degraded_at);
    snap::seq(ar, r.fault_events, [&](auto& e) { fault::event_io(ar, e); });
    snap::f64(ar, r.energy_pj);
    snap::f64(ar, r.energy_off_only_pj);
    snap::u64(ar, r.faults_dropped);
    snap::b(ar, r.ras_enabled);
    ras::metrics_io(ar, r.ras);
    snap::u64(ar, r.ras_frames_pending);
    snap::u64(ar, r.ras_spares_left);
    snap::u64(ar, r.ras_healthy_frames);
    snap::seq(ar, r.ras_retirements,
              [&](auto& e) { ras::retirement_io(ar, e); });
  });
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
  cell_io(w, const_cast<CellResult&>(cell));
}

CellResult decode_cell(snap::Reader& r) {
  CellResult cell;
  cell_io(r, cell);
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
