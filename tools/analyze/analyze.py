#!/usr/bin/env python3
"""Static analysis suite for the hmm codebase.

Seven repo-specific checkers over the tracked C++ sources (see
checks/*.py for the full contracts):

  determinism      unordered-iteration order, pointer keys, wall clocks,
                   unseeded RNG
  snapshot         save()/restore() member coverage
  errors           SimError-only throws, no swallowing catch(...),
                   no bare assert/abort
  layering         include-graph module rules + file-level cycles
  fault-coverage   every FaultSite armed at an injector call site and
                   named in a test
  include-hygiene  #pragma once, no `using namespace` in headers,
                   own header first
  style            no tabs, trailing whitespace or CRLF; one final
                   newline; 80 columns

The first five are semantic and read src/ + tests/; the source-level
rules (bare assert, RNG, own header first, style, header hygiene) reach
further — see each checker's scope.

Backends:
  ast    libclang (python clang.cindex) driven by the build tree's
         compile_commands.json — authoritative where it applies.
  text   degraded token/regex scan — always available, never
         false-positives by construction (it skips what it cannot
         prove), so a container without libclang still gates.

Default is `--backend auto`: text always runs; the AST passes are
layered on top when libclang loads, and findings dedupe by
(path, line, check). `--backend ast` hard-fails when libclang is
missing (CI uses it so the strong backend can never silently degrade).

Suppression: `// analyze: allow(<check>)[: reason]` on the offending
line or the line above. Non-vacuity: every checker has a sabotage
fixture under tools/analyze/fixtures/ registered as a WILL_FAIL ctest,
plus `--self-test` proving each checker fires and each suppression
suppresses under every available backend.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from analyze import astlib                      # noqa: E402
from analyze import checks as checks_pkg        # noqa: E402
from analyze.textlib import (CXX_EXTENSIONS,    # noqa: E402
                             HEADER_EXTENSIONS, SEMANTIC_DIRS,
                             SourceFile)

FIXTURE_DIR = "tools/analyze/fixtures"


class Context:
    """Everything a checker sees: the scanned files, the repo root, and
    (in AST mode) parsed translation units."""

    def __init__(self, root, files, explicit, build_dir, use_ast):
        self.root = root
        self.files = files
        self.explicit = set(explicit)
        self.build_dir = build_dir
        self._by_path = {sf.path: sf for sf in files}
        self._tu_cache = None
        self.use_ast = use_ast
        if use_ast:
            self.cindex = astlib.cindex()
            self.walk = astlib.walk

    def file_at(self, path):
        return self._by_path.get(path)

    def in_scope(self, path, dirs):
        """Explicit files are always checked; otherwise `path` must sit
        under one of `dirs`."""
        return path in self.explicit or path.startswith(dirs)

    def location_of(self, cursor):
        return astlib.location_of(cursor, self.root)

    def tus(self):
        """Yields (TranslationUnit, path) for every scanned .cc file in
        src/ + tests/, plus headers there that no such .cc includes
        (parsed standalone), so header-only classes are still visited."""
        if self._tu_cache is None:
            cache = astlib.TuCache(self.build_dir, self.root)
            tus = []
            covered = set()
            semantic = [sf.path for sf in self.files
                        if self.in_scope(sf.path, SEMANTIC_DIRS)]
            cc_files = [p for p in semantic if p.endswith((".cc", ".cpp"))]
            rroot = os.path.abspath(self.root) + os.sep
            for path in cc_files:
                tu = cache.parse(path)
                if tu is None:
                    continue
                for inc in tu.get_includes():
                    if inc.include is None:
                        continue
                    ipath = os.path.abspath(inc.include.name)
                    if ipath.startswith(rroot):
                        covered.add(ipath[len(rroot):].replace(
                            os.sep, "/"))
                tus.append((tu, path))
            for path in semantic:
                if path.endswith(HEADER_EXTENSIONS) and path not in covered:
                    tu = cache.parse(path)
                    if tu is not None:
                        tus.append((tu, path))
            self.parse_errors = cache.errors
            self._tu_cache = tus
        return self._tu_cache


def git_files(root):
    out = subprocess.run(["git", "ls-files"], cwd=root,
                         capture_output=True, text=True, check=True)
    return [f for f in out.stdout.splitlines()
            if f.endswith(CXX_EXTENSIONS)]


def load_files(root, paths):
    files = []
    for p in sorted(set(paths)):
        full = os.path.join(root, p)
        try:
            with open(full, encoding="utf-8") as f:
                files.append(SourceFile(p, f.read()))
        except OSError as e:
            print(f"analyze: {p}: unreadable: {e}", file=sys.stderr)
            sys.exit(2)
    return files


def run_checks(ctx, selected):
    findings = []
    for mod in checks_pkg.ALL:
        if mod.NAME not in selected:
            continue
        found = list(mod.run_text(ctx))
        # The AST pass re-derives what the text pass already proved, in
        # stronger form — dedupe it against text by (path, line, check).
        # Within a backend, distinct messages on one line all stand.
        text_keys = {(f.path, f.line, f.check) for f in found}
        if ctx.use_ast and mod.run_ast is not None:
            found.extend(f for f in mod.run_ast(ctx)
                         if (f.path, f.line, f.check) not in text_keys)
        seen = set()
        for f in found:
            key = (f.path, f.line, f.check, f.message)
            if key in seen:
                continue
            seen.add(key)
            findings.append(f)
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


def make_context(root, file_args, build_dir, use_ast):
    if file_args:
        rel = [os.path.relpath(os.path.join(root, p), root).replace(
            os.sep, "/") for p in file_args]
        # Explicit files (fixtures) are checked unconditionally, but
        # checkers that correlate across the tree (fault-coverage,
        # snapshot sibling lookup) still see the file set as given.
        return Context(root, load_files(root, rel), rel, build_dir,
                       use_ast)
    tracked = [p for p in git_files(root)
               if not p.startswith(FIXTURE_DIR)]
    return Context(root, load_files(root, tracked), [], build_dir,
                   use_ast)


def resolve_backend(requested):
    """Returns (use_ast, notice)."""
    if requested == "text":
        return False, "text backend requested"
    if astlib.available():
        return True, ""
    if requested == "ast":
        print("analyze: --backend ast but libclang is unavailable: "
              f"{astlib.load_error()}", file=sys.stderr)
        sys.exit(2)
    return False, (f"libclang unavailable ({astlib.load_error()}); "
                   "running the degraded text backend — pip install "
                   "libclang (or set HMM_LIBCLANG) for AST-accurate "
                   "analysis")


def self_test(backend):
    from analyze.selftest import run as selftest_run
    return selftest_run(backend)


def main():
    ap = argparse.ArgumentParser(
        description="hmm static analysis suite")
    ap.add_argument("--root", default=os.path.normpath(os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..")))
    ap.add_argument("--build-dir", default="build",
                    help="build tree holding compile_commands.json")
    ap.add_argument("--checks", default="all",
                    help="comma-separated checker names (default all)")
    ap.add_argument("--backend", choices=("auto", "ast", "text"),
                    default="auto")
    ap.add_argument("--report", metavar="FILE",
                    help="also write findings as JSON")
    ap.add_argument("--self-test", action="store_true",
                    help="prove every checker fires on its sabotage "
                    "fixture and every suppression suppresses")
    ap.add_argument("files", nargs="*",
                    help="explicit files to scan (default: every "
                    "tracked C++ source)")
    args = ap.parse_args()

    if args.self_test:
        return self_test(args.backend)

    names = [m.NAME for m in checks_pkg.ALL]
    selected = set(names) if args.checks == "all" else \
        set(args.checks.split(","))
    unknown = selected - set(names)
    if unknown:
        print(f"analyze: unknown check(s): {', '.join(sorted(unknown))}"
              f" (valid: {', '.join(names)})", file=sys.stderr)
        return 2

    use_ast, notice = resolve_backend(args.backend)
    if notice:
        print(f"analyze: NOTE: {notice}", file=sys.stderr)

    root = os.path.abspath(args.root)
    build_dir = args.build_dir if os.path.isabs(args.build_dir) else \
        os.path.join(root, args.build_dir)
    ctx = make_context(root, args.files, build_dir, use_ast)
    findings = run_checks(ctx, selected)

    for f in findings:
        print(f)
    for e in getattr(ctx, "parse_errors", []):
        print(f"analyze: NOTE: {e}", file=sys.stderr)

    if args.report:
        payload = {
            "backend": "ast" if use_ast else "text",
            "checks": sorted(selected),
            "files_scanned": len(ctx.files),
            "findings": [f.to_json() for f in findings],
        }
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    mode = "ast+text" if use_ast else "text"
    if findings:
        print(f"analyze[{mode}]: {len(findings)} finding(s) in "
              f"{len(ctx.files)} files", file=sys.stderr)
        return 1
    print(f"analyze[{mode}]: clean ({len(ctx.files)} files, "
          f"checks: {', '.join(sorted(selected))})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
