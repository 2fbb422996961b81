#!/usr/bin/env bash
# clang-format wrapper over every tracked C++ source except the
# analyzer's sabotage fixtures, which break the layout on purpose.
#
#   scripts/format.sh           rewrite files in place
#   scripts/format.sh --check   exit 1 if any file would change (CI mode)
#
# Exits 0 with a skip notice when clang-format is not installed — the
# container used for CI gates on tool presence rather than failing
# (the `style` checker in tools/analyze still enforces the mechanical
# pieces of the style: tabs, trailing whitespace, line length, final
# newline).
set -euo pipefail
cd "$(dirname "$0")/.."

CLANG_FORMAT="${CLANG_FORMAT:-clang-format}"
if ! command -v "$CLANG_FORMAT" >/dev/null 2>&1; then
  echo "format.sh: $CLANG_FORMAT not found; skipping (tools/analyze" \
       "still enforces whitespace/line-length style)" >&2
  exit 0
fi

mapfile -t files < <(git ls-files '*.cc' '*.hh' '*.h' '*.cpp' '*.hpp' \
                     ':!tools/analyze/fixtures')
if [[ ${#files[@]} -eq 0 ]]; then
  echo "format.sh: no C++ sources tracked" >&2
  exit 0
fi

if [[ "${1:-}" == "--check" ]]; then
  bad=0
  for f in "${files[@]}"; do
    if ! "$CLANG_FORMAT" --dry-run --Werror "$f" >/dev/null 2>&1; then
      echo "format.sh: would reformat $f" >&2
      bad=1
    fi
  done
  if [[ $bad -ne 0 ]]; then
    echo "format.sh: run scripts/format.sh to fix" >&2
    exit 1
  fi
  echo "format.sh: ${#files[@]} files clean" >&2
else
  "$CLANG_FORMAT" -i "${files[@]}"
  echo "format.sh: formatted ${#files[@]} files" >&2
fi
