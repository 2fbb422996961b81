#!/usr/bin/env python3
"""An interrupted fault_resilience sweep exits 130 with the --resume hint.

The sweep's last cell is the design-N wedge demo, whose watchdog error
the bench self-checks. A SIGINT that lands before that cell starts must
leave it unjudged: the bench exits 130 and tells the user to rerun with
--resume, instead of exiting 1 with a false self-check failure.

The interrupt lands before any cell starts, without timing luck. The
bench's stderr is a pipe filled to capacity before it starts, so its
first write there, the runner's "[runner] N cells" line, blocks. That
line is written after the SIGINT handler is installed and before the
first cell starts. SIGINT is sent once /proc/<pid>/status lists the
handler, and only then is the pipe drained.

Usage: check_interrupt_exit.py path/to/fault_resilience
Exit: 0 when the bench exits 130 with the hint; 1 otherwise, after
printing what it did instead.
"""

import fcntl
import os
import signal
import subprocess
import sys
import tempfile
import time

HINT = "rerun with --resume to continue"
SIGINT_BIT = 1 << (signal.SIGINT - 1)


def filled_pipe():
    """A pipe whose write end blocks the next writer until it is drained."""
    r, w = os.pipe()
    flags = fcntl.fcntl(w, fcntl.F_GETFL)
    fcntl.fcntl(w, fcntl.F_SETFL, flags | os.O_NONBLOCK)
    try:
        while True:
            os.write(w, b"x" * 4096)
    except BlockingIOError:
        pass
    fcntl.fcntl(w, fcntl.F_SETFL, flags)
    return r, w


def catches_sigint(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("SigCgt:"):
                return int(line.split()[1], 16) & SIGINT_BIT != 0
    return False


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as results:
        env = dict(os.environ, HMM_BENCH_SCALE="0.05",
                   HMM_RESULTS_DIR=results)
        r, w = filled_pipe()
        proc = subprocess.Popen([argv[1], "--smoke", "--jobs", "1"], env=env,
                                stdout=subprocess.PIPE, stderr=w)
        os.close(w)
        deadline = time.monotonic() + 60
        while not catches_sigint(proc.pid):
            if proc.poll() is not None or time.monotonic() > deadline:
                proc.kill()
                print("the bench never installed its SIGINT handler")
                return 1
            time.sleep(0.01)
        proc.send_signal(signal.SIGINT)
        with os.fdopen(r, "rb") as f:
            err = f.read().decode(errors="replace").lstrip("x")
        out = proc.stdout.read().decode(errors="replace")
        status = proc.wait()
    if status == 130 and HINT in err:
        return 0
    print(f"exit status {status}, expected 130 with '{HINT}'")
    print(f"--- stdout\n{out}--- stderr\n{err}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
