// Trace utility: generate workload traces to the binary file format,
// inspect/characterize them, and replay a trace file through the
// heterogeneous memory simulator — the workflow for anyone bringing
// their own traces to this library.
//
//   trace_tool generate <workload> <path> [n]     write a trace file
//   trace_tool info <path>                        characterize a trace
//   trace_tool replay <path> [page_bytes]         simulate it
//
// <workload> is one of: FT MG pgbench indexer SPECjbb SPEC2006
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/memsim.hh"
#include "trace/characterize.hh"
#include "trace/io.hh"
#include "trace/workloads.hh"

using namespace hmm;

namespace {

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : section4_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

int cmd_generate(const std::string& name, const std::string& path,
                 std::uint64_t n) {
  const WorkloadInfo* w = find_workload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  auto gen = w->make(1);
  TraceWriter out(path, w->name);
  for (std::uint64_t i = 0; i < n; ++i) out.write(gen->next());
  out.close();
  std::printf("wrote %llu records of %s to %s\n",
              static_cast<unsigned long long>(out.written()),
              w->name.c_str(), path.c_str());
  return 0;
}

int cmd_info(const std::string& path) {
  TraceReader in(path);
  TraceCharacterizer chr(64 * KiB,
                         {128 * MiB, 256 * MiB, 512 * MiB, 1 * GiB});
  while (auto r = in.next()) chr.add(*r);
  const TraceProfile p = chr.profile();

  std::printf("trace       %s (%s)\n", path.c_str(),
              in.workload_name().c_str());
  std::printf("accesses    %llu\n",
              static_cast<unsigned long long>(p.accesses));
  std::printf("footprint   %s (64KB pages touched)\n",
              format_size(p.footprint_bytes).c_str());
  std::printf("reads       %.1f%%\n", p.read_fraction * 100);
  std::printf("mean gap    %.1f cycles\n", p.mean_gap_cycles);
  for (std::size_t i = 0; i < p.coverage_points.size(); ++i)
    std::printf("hot %-6s  %.1f%% of traffic\n",
                format_size(p.coverage_points[i]).c_str(),
                p.traffic_share[i] * 100);
  return 0;
}

int cmd_replay(const std::string& path, std::uint64_t page) {
  TraceReader in(path);
  MemSimConfig cfg;
  cfg.controller.geom =
      Geometry{4 * GiB, 512 * MiB, page,
               std::min<std::uint64_t>(4 * KiB, page)};
  cfg.scheme = "Live";
  cfg.controller.swap_interval = 1'000;
  MemSim sim(cfg);
  while (auto r = in.next()) sim.step(*r);
  sim.finish();
  const RunResult res = sim.result();
  std::printf("replayed %llu accesses at %s granularity\n",
              static_cast<unsigned long long>(res.accesses),
              format_size(page).c_str());
  std::printf("avg latency   %.1f cycles (p99 %.0f)\n", res.avg_latency,
              res.p99_latency);
  std::printf("on-package    %.1f%%\n", res.on_package_fraction * 100);
  std::printf("swaps         %llu (%.1f MB migrated)\n",
              static_cast<unsigned long long>(res.swaps),
              static_cast<double>(res.migrated_bytes) / (1024.0 * 1024.0));
  std::printf("power         %.2fx of off-package-only\n",
              res.normalized_power());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s generate <workload> <path> [n]\n"
                 "       %s info <path>\n"
                 "       %s replay <path> [page_bytes]\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate" && argc >= 4) {
      const std::uint64_t n =
          argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 200'000;
      return cmd_generate(argv[2], argv[3], n);
    }
    if (cmd == "info") return cmd_info(argv[2]);
    if (cmd == "replay") {
      const std::uint64_t page =
          argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 64 * KiB;
      return cmd_replay(argv[2], page);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
