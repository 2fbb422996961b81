"""include-hygiene — headers stand alone and leak nothing.

Three rules:

  pragma-once      every header opens with `#pragma once` (after the
                   file comment).
  using-namespace  no `using namespace` in a header: it leaks into every
                   file that includes it.
  own-header       a .cc in shipped code (src/ and tools/) that has a
                   header of the same name includes it first, which
                   proves the header compiles with nothing before it.

Suppression: `// analyze: allow(include-hygiene)` on the `using` or
`#include` line (or the line above).
"""

import os
import re

from ..textlib import HEADER_EXTENSIONS, SHIPPED_DIRS, Finding

NAME = "include-hygiene"

INCLUDE_RE = re.compile(r'\s*#\s*include\s+["<]([^">]+)[">]')
USING_NAMESPACE_RE = re.compile(r"\s*using\s+namespace\s")


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def _check_header(sf, findings):
    first = next((code for code in sf.code if code.strip()), "")
    if first.strip() != "#pragma once":
        findings.append(Finding(
            sf.path, 1, NAME,
            "header must open with #pragma once (after the file "
            "comment)"))
    for i, code in enumerate(sf.code):
        if USING_NAMESPACE_RE.match(code) and not sf.allowed(i + 1, NAME):
            findings.append(Finding(
                sf.path, i + 1, NAME,
                "`using namespace` in a header leaks into every "
                "includer"))


def _check_own_header_first(sf, findings):
    for i, code in enumerate(sf.code):
        # Match the raw line: the code view blanks string literals,
        # which would erase quoted include paths.
        m = INCLUDE_RE.match(sf.raw_lines[i])
        if m is None or not code.strip():
            continue
        if _stem(m.group(1)) != _stem(sf.path) and \
                not sf.allowed(i + 1, NAME):
            findings.append(Finding(
                sf.path, i + 1, NAME,
                "a .cc must include its own header first, so the header "
                "is proven self-contained"))
        return


def run_text(ctx):
    findings = []
    # Binaries without a header of their own (tool and bench mains) have
    # nothing to prove self-contained.
    header_stems = {_stem(sf.path) for sf in ctx.files
                    if sf.path.endswith(HEADER_EXTENSIONS)}
    for sf in ctx.files:
        if sf.path.endswith(HEADER_EXTENSIONS):
            _check_header(sf, findings)
        elif sf.path.endswith((".cc", ".cpp")) and \
                ctx.in_scope(sf.path, SHIPPED_DIRS) and \
                _stem(sf.path) in header_stems:
            _check_own_header_first(sf, findings)
    return findings


run_ast = None  # include order and header text are exact at the text level
