"""--self-test: non-vacuity proof for every checker and suppression.

Mirrors the model checker's sabotage modes: each checker must fire on
its `*_bad` fixture (with the expected finding count floor) and stay
silent on its `*_ok` companion, which re-states the same constructs
either rewritten the approved way or carrying allow() annotations. A
checker edit that goes blind — or a suppression parser that stops
suppressing — fails this test instead of silently passing the tree.

Runs under the text backend always, and again under the AST backend
when libclang is available, so CI proves both paths.
"""

import os
import sys

from . import astlib
from . import checks as checks_pkg

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
FIX = "tools/analyze/fixtures"

# (check, bad file-set or root, ok file-set or root, min bad findings)
CASES = [
    ("determinism", [f"{FIX}/determinism_bad.cc"],
     [f"{FIX}/determinism_ok.cc"], 4),
    ("snapshot", [f"{FIX}/snapshot_bad.hh"],
     [f"{FIX}/snapshot_ok.hh"], 4),
    ("errors", [f"{FIX}/errors_bad.cc"],
     [f"{FIX}/errors_ok.cc"], 3),
    ("layering", f"{FIX}/layering_bad", f"{FIX}/layering_ok", 4),
    ("fault-coverage", f"{FIX}/fault_bad", f"{FIX}/fault_ok", 2),
    ("include-hygiene",
     [f"{FIX}/hygiene_bad.hh", f"{FIX}/hygiene_bad.cc"],
     [f"{FIX}/hygiene_ok.hh", f"{FIX}/hygiene_ok.cc"], 3),
    ("style", [f"{FIX}/style_bad.cc"], [f"{FIX}/style_ok.cc"], 4),
]


def _context(target, use_ast):
    # Imported here to dodge the analyze.py <-> selftest import knot.
    from .analyze import make_context
    if isinstance(target, list):
        return make_context(ROOT, target, os.path.join(ROOT, "build"),
                            use_ast)
    return make_context(os.path.join(ROOT, target), [],
                        os.path.join(ROOT, "build"), use_ast)


def _run(check, target, use_ast):
    from .analyze import run_checks
    return run_checks(_context(target, use_ast), {check})


def _backend_pass(use_ast, label):
    failures = []
    for check, bad, ok, floor in CASES:
        got = _run(check, bad, use_ast)
        wrong = [f for f in got if f.check != check]
        if len(got) < floor:
            failures.append(
                f"[{label}] {check}: expected >= {floor} findings on "
                f"its sabotage fixture, got {len(got)} — the checker "
                "has gone blind")
        if wrong:
            failures.append(
                f"[{label}] {check}: fixture raised a foreign check "
                f"id: {wrong[0]}")
        clean = _run(check, ok, use_ast)
        if clean:
            failures.append(
                f"[{label}] {check}: the ok/suppressed fixture still "
                f"raised: {clean[0]} — suppressions are broken")
    return failures


def run(backend):
    failures = _backend_pass(False, "text")
    ran = ["text"]
    if backend != "text":
        if astlib.available():
            failures += _backend_pass(True, "ast")
            ran.append("ast")
        elif backend == "ast":
            print("analyze --self-test: --backend ast but libclang is "
                  f"unavailable: {astlib.load_error()}",
                  file=sys.stderr)
            return 2
        else:
            print("analyze --self-test: NOTE: libclang unavailable "
                  f"({astlib.load_error()}); AST pass skipped",
                  file=sys.stderr)
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    verdict = "FAIL" if failures else "PASS"
    print(f"analyze --self-test: {verdict} "
          f"({len(CASES)} checkers x {{{', '.join(ran)}}} backends)",
          file=sys.stderr)
    return 1 if failures else 0
