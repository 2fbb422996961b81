"""style — the mechanical layout of every tracked C++ file.

No tabs (indent is spaces), no trailing whitespace, no CRLF line
endings, exactly one final newline, and at most 80 columns (the
.clang-format limit). scripts/format.sh enforces the full layout where
clang-format is installed; this checker keeps the mechanical part
gating everywhere else.

Suppression: `// analyze: allow(style)` on the line (or the line
above), e.g. for a URL that cannot wrap.
"""

from ..textlib import Finding

NAME = "style"

MAX_COLUMNS = 80


def run_text(ctx):
    findings = []
    for sf in ctx.files:
        text = sf.text
        if "\r" in text:
            findings.append(Finding(sf.path, 0, NAME, "CRLF line endings"))
        if text and not text.endswith("\n"):
            findings.append(Finding(sf.path, 0, NAME,
                                    "file does not end with a newline"))
        if text.endswith("\n\n"):
            findings.append(Finding(sf.path, 0, NAME,
                                    "file ends with blank lines"))
        for lineno, raw in enumerate(sf.raw_lines, start=1):
            if sf.allowed(lineno, NAME):
                continue
            if "\t" in raw:
                findings.append(Finding(sf.path, lineno, NAME,
                                        "tab character (indent is spaces)"))
            if raw != raw.rstrip():
                findings.append(Finding(sf.path, lineno, NAME,
                                        "trailing whitespace"))
            if len(raw) > MAX_COLUMNS:
                findings.append(Finding(
                    sf.path, lineno, NAME,
                    f"line is {len(raw)} columns (limit {MAX_COLUMNS})"))
    return findings


run_ast = None  # layout is a property of the text
