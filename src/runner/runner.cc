#include "runner/runner.hh"

#include <chrono>
#include <exception>
#include <filesystem>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fault/sim_error.hh"
#include "runner/journal.hh"
#include "runner/supervisor.hh"
#include "sim/checkpoint.hh"
#include "sim/replay.hh"

namespace hmm::runner {

namespace {

/// Internal control-flow signal: the sweep interrupt flag rose mid-cell
/// and (when checkpointing is on) a checkpoint has been saved. Caught in
/// attempt(), never escapes the runner.
struct InterruptedRun {};

[[nodiscard]] unsigned resolve_jobs(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// The references of `spec` replayed as the instant-migration warm-up.
[[nodiscard]] std::uint64_t warm_accesses(const ExperimentSpec& spec) {
  return static_cast<std::uint64_t>(static_cast<double>(spec.accesses) *
                                    spec.warmup_fraction);
}

[[nodiscard]] CellResult unstarted_interrupted(const ExperimentSpec& spec) {
  CellResult cell;
  cell.key = spec.key;
  cell.ok = false;
  cell.status = "interrupted";
  cell.error = "sweep interrupted before this cell started";
  cell.attempts = 0;
  return cell;
}

}  // namespace

ExperimentRunner::ExperimentRunner(RunnerOptions opts)
    : jobs_(resolve_jobs(opts.jobs)),
      base_seed_(opts.base_seed),
      observer_(opts.observer),
      cell_timeout_(opts.cell_timeout_seconds),
      journal_path_(std::move(opts.journal_path)),
      resume_(opts.resume),
      checkpoint_dir_(std::move(opts.checkpoint_dir)),
      checkpoint_interval_(opts.checkpoint_interval_seconds) {}

RunResult ExperimentRunner::replay(const ExperimentSpec& spec,
                                   std::uint64_t seed) {
  MemSim sim(spec.config);
  auto gen = spec.workload.make(seed);
  hmm::replay(sim, *gen, warm_accesses(spec), spec.accesses);
  return sim.result();
}

RunResult ExperimentRunner::durable_replay(const ExperimentSpec& spec,
                                           std::uint64_t seed,
                                           const std::string& ckpt_path,
                                           std::uint64_t& replayed) const {
  MemSim sim(spec.config);
  auto gen = spec.workload.make(seed);
  CheckpointMeta at{checkpoint_fingerprint(spec.key, seed, spec.accesses), 0,
                    false};
  if (!ckpt_path.empty()) {
    if (const auto m = load_checkpoint(ckpt_path, at.fingerprint,
                                       spec.accesses, *gen, sim))
      at = *m;
  }
  replayed = spec.accesses - at.accesses_done;

  auto last_ckpt = std::chrono::steady_clock::now();
  const auto between = [&](const CheckpointMeta& progress) {
    if (interrupt_requested()) {
      if (!ckpt_path.empty()) save_checkpoint(ckpt_path, progress, *gen, sim);
      return false;
    }
    if (!ckpt_path.empty() && checkpoint_interval_ > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_ckpt).count() >=
          checkpoint_interval_) {
        save_checkpoint(ckpt_path, progress, *gen, sim);
        last_ckpt = now;
      }
    }
    return true;
  };
  if (!hmm::replay(sim, *gen, warm_accesses(spec), spec.accesses, at,
                   between)) {
    // analyze: allow(errors): internal control flow, classified in attempt()
    throw InterruptedRun{};
  }
  return sim.result();
}

std::string ExperimentRunner::checkpoint_path(
    const ExperimentSpec& spec) const {
  if (checkpoint_dir_.empty() || spec.job) return {};
  return checkpoint_dir_ + "/" + sanitize_key(spec.key) + ".ckpt";
}

CellResult ExperimentRunner::attempt(const ExperimentSpec& spec,
                                     std::uint64_t seed,
                                     const std::string& ckpt_path) const {
  CellResult cell;
  cell.key = spec.key;
  cell.seed = seed;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (spec.job) {
      // analyze: allow(errors): internal control flow, classified below
      if (interrupt_requested()) throw InterruptedRun{};
      cell.result = spec.job(seed);
      cell.accesses_replayed = cell.result.accesses;
    } else if (cell_timeout_ > 0 && spec.config.max_wall_seconds <= 0) {
      ExperimentSpec bounded = spec;
      bounded.config.max_wall_seconds = cell_timeout_;
      cell.result =
          durable_replay(bounded, seed, ckpt_path, cell.accesses_replayed);
    } else {
      cell.result =
          durable_replay(spec, seed, ckpt_path, cell.accesses_replayed);
    }
    cell.ok = true;
    cell.status = "ok";
  } catch (const InterruptedRun&) {
    cell.status = "interrupted";
    cell.error = ckpt_path.empty() ? "interrupted"
                                   : "interrupted (checkpoint saved)";
  } catch (const fault::SimError& e) {
    cell.error = e.what();
    cell.status =
        e.kind() == fault::SimErrorKind::Timeout ? "timeout" : "failed";
  } catch (const std::exception& e) {
    cell.error = e.what();
    cell.status = "failed";
    // analyze: allow(errors): last-resort classifier marks the cell failed
  } catch (...) {
    cell.error = "unknown exception";
    cell.status = "failed";
  }
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (cell.ok && cell.wall_seconds > 0)
    cell.accesses_per_sec =
        static_cast<double>(cell.accesses_replayed) / cell.wall_seconds;
  return cell;
}

CellResult ExperimentRunner::execute(const ExperimentSpec& spec) const {
  const std::uint64_t seed = derive_seed(
      base_seed_, spec.seed_key.empty() ? spec.key : spec.seed_key);
  const std::string ckpt = checkpoint_path(spec);
  CellResult cell = attempt(spec, seed, ckpt);
  cell.attempts = 1;
  if (!cell.ok && cell.status != "interrupted") {
    // One more try with the identical seed: a transient host effect (e.g.
    // a timeout on a loaded machine) clears, a deterministic failure
    // reproduces — either way the outcome is informative.
    const double first_wall = cell.wall_seconds;
    cell = attempt(spec, seed, ckpt);
    cell.attempts = 2;
    cell.wall_seconds += first_wall;
  }
  // An interrupted cell keeps its checkpoint for --resume; any terminal
  // outcome makes the checkpoint stale.
  if (!ckpt.empty() && cell.status != "interrupted") remove_checkpoint(ckpt);
  return cell;
}

std::vector<CellResult> ExperimentRunner::run(
    const std::vector<ExperimentSpec>& grid) {
  const auto sweep_start = std::chrono::steady_clock::now();
  std::vector<CellResult> results(grid.size());
  RunningStat wall;
  std::size_t done = 0;
  if (observer_) observer_->on_start(grid.size(), jobs_);

  std::error_code ec;
  if (!journal_path_.empty()) {
    const auto parent = std::filesystem::path(journal_path_).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  }
  if (!checkpoint_dir_.empty())
    std::filesystem::create_directories(checkpoint_dir_, ec);
  // A fresh sweep inherits nothing: an earlier sweep's journal lines would
  // ride along into this one's appends, and a leftover checkpoint of one
  // of this grid's cells would be restored.
  if (!resume_) {
    if (!journal_path_.empty()) std::filesystem::remove(journal_path_, ec);
    for (const ExperimentSpec& spec : grid)
      if (const std::string ckpt = checkpoint_path(spec); !ckpt.empty())
        remove_checkpoint(ckpt);
  }
  Journal journal(journal_path_);

  // Resume: cells already journaled come back verbatim (bit-identical
  // metrics), everything else lands on the todo list.
  std::unordered_map<std::string, const CellResult*> recorded;
  if (resume_)
    for (const CellResult& c : journal.recovered()) recorded[c.key] = &c;
  std::vector<std::size_t> todo;
  todo.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto it = recorded.find(grid[i].key);
    if (it != recorded.end()) {
      results[i] = *it->second;
      results[i].resumed = true;
      ++done;
      if (observer_) observer_->on_cell_done(results[i], done, grid.size());
    } else {
      todo.push_back(i);
    }
  }

  // Completion bookkeeping, on this thread for both execution paths.
  const auto complete = [&](std::size_t i, CellResult cell) {
    if (cell.status != "interrupted") journal.append(cell);
    wall.add(cell.wall_seconds);
    results[i] = std::move(cell);
    ++done;
    if (observer_) observer_->on_cell_done(results[i], done, grid.size());
  };

  // Both paths start cells in todo order and stop starting them once the
  // interrupt flag rises; `started` counts the cells they started.
  std::size_t started = 0;
  if (jobs_ > 1) {
    // The runner starts no threads, so every fork() happens from a
    // single-threaded process.
    const auto fn = [this, &grid](std::size_t i) { return execute(grid[i]); };
    started = Supervisor({jobs_, cell_timeout_}).run(grid, todo, fn, complete);
  } else {
    // Inline serial path: the exact pre-runner bench loop.
    for (; started < todo.size() && !interrupt_requested(); ++started)
      complete(todo[started], execute(grid[todo[started]]));
  }
  for (std::size_t k = started; k < todo.size(); ++k)
    complete(todo[k], unstarted_interrupted(grid[todo[k]]));

  // The journal has served its purpose once every cell is terminal; keep
  // it only when something was interrupted (that is what --resume reads).
  bool any_interrupted = false;
  for (const CellResult& c : results)
    if (c.status == "interrupted") any_interrupted = true;
  if (journal.enabled() && !any_interrupted) journal.remove();

  if (observer_) {
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - sweep_start)
                               .count();
    observer_->on_finish(wall, elapsed);
  }
  return results;
}

}  // namespace hmm::runner
