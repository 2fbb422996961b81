"""Shared text-level scanning helpers for the static analysis suite.

The AST backend (astlib) is authoritative when libclang is importable;
these helpers power the degraded text backend that keeps every checker
running — and every sabotage fixture firing — in containers without
libclang. Both backends share the Finding type and the suppression
syntax so a site annotated once is silent under either backend:

    // analyze: allow(<check>)[: reason]

on the offending line or on the line immediately above it.
"""

import re

ALLOW_RE = re.compile(r"//\s*analyze:\s*allow\(([a-z\-]+)\)")

CXX_EXTENSIONS = (".cc", ".hh", ".h", ".cpp", ".hpp")
HEADER_EXTENSIONS = (".hh", ".h", ".hpp")

# What the semantic checkers read: the simulator and its tests.
SEMANTIC_DIRS = ("src/", "tests/")
# Shipped (non-test) code, held to the bare-assert, unseeded-RNG and
# own-header-first rules.
SHIPPED_DIRS = ("src/", "tools/")


class Finding:
    """One checker hit. `line` is 1-based; 0 means whole-file."""

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        loc = f"{self.path}:{self.line}" if self.line else self.path
        return f"{loc}: [{self.check}] {self.message}"

    def to_json(self):
        return {"path": self.path, "line": self.line,
                "check": self.check, "message": self.message}


def strip_comments_and_strings(line):
    """Blanks // comments and string/char literal contents so token
    scans never fire on documentation or log text."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == in_str:
                in_str = None
                out.append(c)
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(c)
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(c)
        i += 1
    return "".join(out)


def code_lines(text):
    """Returns a list of code-only lines (1-based access via index+1):
    block comments, // comments, and literal contents blanked."""
    out = []
    in_block = False
    for raw in text.split("\n"):
        line = raw
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        out.append(strip_comments_and_strings(line))
    return out


def allowed(lines, lineno, check):
    """True when line `lineno` (1-based) or the line above carries an
    `// analyze: allow(<check>)` suppression in `lines` (raw text)."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines):
            m = ALLOW_RE.search(lines[ln - 1])
            if m is not None and m.group(1) == check:
                return True
    return False


def find_matching_brace(text, open_pos):
    """Index of the `}` closing the `{` at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


class SourceFile:
    """A scanned file: raw text plus cached raw/code line views."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.raw_lines = text.split("\n")
        self.code = code_lines(text)

    def allowed(self, lineno, check):
        return allowed(self.raw_lines, lineno, check)
