#!/usr/bin/env bash
# Static-analysis gate: everything that can judge the tree without
# running it. Run from anywhere; operates on the repo root.
#
#   scripts/check_static.sh [build-dir]
#
# Stages:
#   1. tools/analyze            repo-specific checkers: determinism,
#                               snapshot, errors, layering,
#                               fault-coverage, include-hygiene, style
#                               (always; AST backend when libclang
#                               imports, the text backend otherwise)
#   2. scripts/format.sh --check  clang-format conformance   (if installed)
#   3. clang-tidy               curated .clang-tidy set      (if installed)
#   4. cppcheck                 whole-program analysis       (if installed)
#
# Missing optional tools produce a SKIP line, not a failure: the repo
# must stay checkable in minimal containers that only carry a compiler
# and python3. Stage 1 is the enforced backbone and never skips.
set -uo pipefail
cd "$(dirname "$0")/.." || exit 2

BUILD_DIR="${1:-build}"
failures=0

note() { echo "== $*" >&2; }
skip() { echo "-- SKIP: $*" >&2; }
fail() { echo "-- FAIL: $*" >&2; failures=$((failures + 1)); }

# The list-driven stages (clang-tidy, cppcheck) share one source list,
# gathered once and checked non-empty. Feeding them straight from a
# command substitution let a failing `git ls-files` hand clang-tidy an
# empty list — which exits 0, silently passing an entire stage on
# nothing. Sabotage fixtures are excluded: they violate rules on
# purpose, and the analyzer's WILL_FAIL ctests are what prove they
# still fire.
if sources_out=$(git ls-files 'src/*.cc' 'tools/*.cc' \
                 ':!tools/analyze/fixtures'); then
  mapfile -t cxx_sources <<<"$sources_out"
else
  cxx_sources=()
  fail "git ls-files failed; cannot enumerate C++ sources"
fi
if [[ ${#cxx_sources[@]} -eq 0 || -z "${cxx_sources[0]}" ]]; then
  cxx_sources=()
  fail "source enumeration returned no files (tree layout changed?)"
fi

# --- 1. analysis suite (mandatory) ------------------------------------------
note "analyze"
if ! python3 tools/analyze/analyze.py --build-dir "$BUILD_DIR"; then
  fail "tools/analyze reported findings"
fi

# --- 2. formatting ----------------------------------------------------------
note "format --check"
if command -v "${CLANG_FORMAT:-clang-format}" >/dev/null 2>&1; then
  if ! scripts/format.sh --check; then
    fail "clang-format check"
  fi
else
  skip "clang-format not installed"
fi

# --- 3. clang-tidy ----------------------------------------------------------
note "clang-tidy"
if ! command -v clang-tidy >/dev/null 2>&1; then
  skip "clang-tidy not installed"
elif [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  skip "no $BUILD_DIR/compile_commands.json (configure with" \
       "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON)"
elif [[ ${#cxx_sources[@]} -gt 0 ]]; then
  if ! clang-tidy -p "$BUILD_DIR" --quiet "${cxx_sources[@]}"; then
    fail "clang-tidy"
  fi
fi

# --- 4. cppcheck ------------------------------------------------------------
note "cppcheck"
if ! command -v cppcheck >/dev/null 2>&1; then
  skip "cppcheck not installed"
elif [[ ${#cxx_sources[@]} -gt 0 ]]; then
  if ! cppcheck --std=c++20 --language=c++ --enable=warning,performance \
       --error-exitcode=1 --inline-suppr --quiet \
       --suppress=missingIncludeSystem -I src \
       "${cxx_sources[@]}"; then
    fail "cppcheck"
  fi
fi

if [[ $failures -ne 0 ]]; then
  echo "check_static: $failures stage(s) failed" >&2
  exit 1
fi
echo "check_static: all stages passed (or skipped for missing tools)" >&2
