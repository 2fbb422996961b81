#include "sim/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <vector>

namespace hmm {

namespace {
constexpr std::uint32_t kMagic = snap::tag('H', 'M', 'M', 'K');
constexpr std::uint32_t kFormatVersion = 3;
}  // namespace

std::uint64_t checkpoint_fingerprint(const std::string& key,
                                     std::uint64_t seed,
                                     std::uint64_t accesses) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  mix(seed);
  mix(accesses);
  return h;
}

bool atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const char* p = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, p + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void save_checkpoint(const std::string& path, const CheckpointMeta& meta,
                     const SyntheticWorkload& workload, const MemSim& sim) {
  snap::Writer w;
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u64(meta.fingerprint);
  w.begin_section(snap::tag('M', 'E', 'T', 'A'));
  w.u64(meta.accesses_done);
  w.b(meta.stats_reset_done);
  w.end_section();
  workload.save(w);
  sim.save(w);
  w.begin_section(snap::tag('D', 'O', 'N', 'E'));
  w.end_section();
  const std::vector<std::uint8_t>& buf = w.buffer();
  if (!atomic_write_file(path, buf.data(), buf.size()))
    snap::snapshot_error("cannot write checkpoint file " + path);
}

std::optional<CheckpointMeta> load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint,
    std::uint64_t accesses, SyntheticWorkload& workload, MemSim& sim) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::vector<std::uint8_t> buf(
      (std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  snap::Reader r(buf);
  if (buf.size() < 16 || r.u32() != kMagic)
    snap::snapshot_error(path + " is not a checkpoint file");
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    snap::snapshot_error("checkpoint format version " +
                         std::to_string(version) + " is not supported");
  const std::uint64_t fp = r.u64();
  if (fp != expected_fingerprint)
    snap::snapshot_error(
        "checkpoint fingerprint mismatch: " + path +
        " belongs to a different cell (key/seed/access budget changed)");
  CheckpointMeta meta;
  meta.fingerprint = fp;
  r.begin_section(snap::tag('M', 'E', 'T', 'A'));
  meta.accesses_done = r.u64();
  meta.stats_reset_done = r.b();
  r.end_section();
  // The fingerprint binds the budget, not the progress record.
  if (meta.accesses_done > accesses)
    snap::snapshot_error(
        "checkpoint progress " + std::to_string(meta.accesses_done) +
        " is past the cell's " + std::to_string(accesses) +
        "-access budget: " + path);
  workload.restore(r);
  sim.restore(r);
  r.begin_section(snap::tag('D', 'O', 'N', 'E'));
  r.end_section();
  return meta;
}

void remove_checkpoint(const std::string& path) noexcept {
  std::remove(path.c_str());
}

}  // namespace hmm
