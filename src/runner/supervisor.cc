#include "runner/supervisor.hh"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <ctime>
#include <string>

#include "runner/journal.hh"

namespace hmm::runner {

namespace {

std::atomic<bool> g_interrupt{false};
std::atomic<bool> g_handlers_installed{false};

extern "C" void hmm_on_interrupt_signal(int) {
  // Only the lock-free atomic store: everything else (checkpointing,
  // journal flush) happens at the next poll point in ordinary code.
  g_interrupt.store(true, std::memory_order_relaxed);
}

}  // namespace

bool interrupt_requested() noexcept {
  return g_interrupt.load(std::memory_order_relaxed);
}

void request_interrupt() noexcept {
  g_interrupt.store(true, std::memory_order_relaxed);
}

void clear_interrupt() noexcept {
  g_interrupt.store(false, std::memory_order_relaxed);
}

void install_interrupt_handlers() {
  if (g_handlers_installed.exchange(true)) return;
  struct sigaction sa = {};
  sa.sa_handler = hmm_on_interrupt_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

namespace {

struct Child {
  pid_t pid = -1;
  int fd = -1;  ///< read end of the result pipe (non-blocking)
  std::size_t index = 0;
  std::chrono::steady_clock::time_point started;
  std::vector<std::uint8_t> buf;
  bool killed_for_timeout = false;
  bool term_forwarded = false;
};

void drain_pipe(Child& c) {
  std::uint8_t tmp[4096];
  for (;;) {
    const ssize_t n = ::read(c.fd, tmp, sizeof tmp);
    if (n > 0) {
      c.buf.insert(c.buf.end(), tmp, tmp + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // EOF, or EAGAIN (no data right now)
  }
}

[[nodiscard]] CellResult classify(const Child& c, int status,
                                  const ExperimentSpec& spec,
                                  double wall_seconds) {
  CellResult from_blob;
  bool have_blob = false;
  if (!c.buf.empty()) {
    try {
      snap::Reader r(c.buf);
      from_blob = decode_cell(r);
      have_blob = true;
    } catch (const fault::SimError&) {
      // Torn blob (child died mid-write): fall through to synthesis.
    }
  }

  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (have_blob && (code == 0 || code == kInterruptedExit))
      return from_blob;
    CellResult cell;
    cell.key = spec.key;
    cell.ok = false;
    cell.attempts = 1;
    cell.wall_seconds = wall_seconds;
    if (code == kInterruptedExit) {
      cell.status = "interrupted";
      cell.error = "cell interrupted (no result blob)";
    } else {
      cell.status = "error";
      cell.error = "cell process exited with code " + std::to_string(code);
    }
    return cell;
  }

  CellResult cell;
  cell.key = spec.key;
  cell.ok = false;
  cell.attempts = 1;
  cell.wall_seconds = wall_seconds;
  const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  if (c.killed_for_timeout) {
    cell.status = "timeout";
    cell.error = "cell exceeded its wall-clock budget (killed by supervisor)";
  } else {
    cell.status = "crashed";
    cell.error = "cell process killed by signal " + std::to_string(sig);
  }
  return cell;
}

}  // namespace

std::size_t Supervisor::run(const std::vector<ExperimentSpec>& grid,
                            const std::vector<std::size_t>& todo,
                            const CellFn& fn, const DoneFn& done) {
  const unsigned jobs = opts_.jobs > 0 ? opts_.jobs : 1;
  // Kill a child only well past its own internal deadline: the child
  // classifies its own timeout cleanly; SIGKILL is the backstop for a
  // child wedged so hard it cannot even raise SimError(Timeout).
  const double hard_deadline =
      opts_.cell_timeout > 0 ? 2.0 * opts_.cell_timeout + 5.0 : 0;

  std::vector<Child> active;
  std::size_t next = 0;

  const auto spawn = [&](std::size_t index) {
    int fds[2];
    if (::pipe(fds) != 0) {
      done(index, fn(index));  // cannot isolate: degrade to inline
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      done(index, fn(index));
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      int code = 70;  // EX_SOFTWARE: fn escaped, which it never should
      try {
        const CellResult cell = fn(index);
        snap::Writer w;
        encode_cell(w, cell);
        const std::vector<std::uint8_t>& buf = w.buffer();
        std::size_t off = 0;
        while (off < buf.size()) {
          const ssize_t n =
              ::write(fds[1], buf.data() + off, buf.size() - off);
          if (n < 0) {
            if (errno == EINTR) continue;
            break;
          }
          off += static_cast<std::size_t>(n);
        }
        code = cell.status == "interrupted" ? kInterruptedExit : 0;
        // analyze: allow(errors): forked child must _exit, never unwind
      } catch (...) {
      }
      ::close(fds[1]);
      ::_exit(code);
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    Child c;
    c.pid = pid;
    c.fd = fds[0];
    c.index = index;
    c.started = std::chrono::steady_clock::now();
    active.push_back(c);
  };

  while (!active.empty() || next < todo.size()) {
    const bool stopping = interrupt_requested();
    while (!stopping && next < todo.size() && active.size() < jobs)
      spawn(todo[next++]);

    if (stopping) {
      // Running children get SIGTERM once and are then reaped normally
      // (they checkpoint and exit kInterruptedExit on their own).
      for (Child& c : active) {
        if (!c.term_forwarded) {
          ::kill(c.pid, SIGTERM);
          c.term_forwarded = true;
        }
      }
      if (active.empty()) break;
    }

    bool reaped_any = false;
    for (std::size_t i = 0; i < active.size();) {
      Child& c = active[i];
      drain_pipe(c);
      int status = 0;
      const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
      if (r == c.pid) {
        drain_pipe(c);  // everything the child wrote is in the pipe now
        ::close(c.fd);
        const double wall =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          c.started)
                .count();
        done(c.index, classify(c, status, grid[c.index], wall));
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        reaped_any = true;
        continue;
      }
      if (hard_deadline > 0 && !c.killed_for_timeout) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          c.started)
                .count();
        if (elapsed > hard_deadline) {
          c.killed_for_timeout = true;
          ::kill(c.pid, SIGKILL);
        }
      }
      ++i;
    }

    if (!reaped_any && !active.empty()) {
      struct timespec ts = {0, 2'000'000};  // 2ms
      ::nanosleep(&ts, nullptr);
    }
  }
  return next;
}

}  // namespace hmm::runner
