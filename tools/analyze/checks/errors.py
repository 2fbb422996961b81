"""errors — structured-error discipline in shipped simulation code.

One catch site in the runner classifies any cell outcome; that only
works if src/ speaks exactly one exception dialect. Three rules:

  throw-type     only `SimError` (any qualification) may be thrown from
                 src/; bare `throw;` rethrows are fine. Internal
                 control-flow exceptions caught in the same subsystem
                 need an annotated reason.
  catch-all      `catch (...)` must rethrow (`throw;`) somewhere in its
                 body or carry an allow(errors) annotation explaining
                 what swallowing buys (destructor guards, fork-child
                 boundaries, pool survival).
  bare-assert    assert()/abort() in shipped code (src/ and tools/)
                 vanish in release builds / kill the process; invariants
                 use HMM_CHECK (always evaluated, throws SimError).

The AST backend resolves the thrown expression's type; the text backend
matches the spelled throw target, so both agree on every idiom the
repo uses.
"""

import re

from ..textlib import SHIPPED_DIRS, Finding, find_matching_brace

NAME = "errors"

THROW_RE = re.compile(r"(?<![\w_])throw\s+([A-Za-z_][\w:]*)")
SIM_ERROR_NAMES = re.compile(
    r"^(?:::)?(?:hmm::)?(?:fault::)?SimError$")
CATCH_ALL_RE = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
RETHROW_RE = re.compile(r"(?<![\w_])throw\s*;")
ASSERT_RE = re.compile(r"(?<![\w_])(assert|abort)\s*\(")


def run_text(ctx):
    findings = []
    for sf in ctx.files:
        if ctx.in_scope(sf.path, SHIPPED_DIRS):
            for i, code in enumerate(sf.code):
                m = ASSERT_RE.search(code)
                if m and "static_assert" not in code and \
                        not sf.allowed(i + 1, NAME):
                    findings.append(Finding(
                        sf.path, i + 1, NAME,
                        f"{m.group(1)}() vanishes in release builds / "
                        "kills the process; use HMM_CHECK so the "
                        "invariant throws a structured SimError"))
        if not ctx.in_scope(sf.path, ("src/",)):
            continue
        joined = "\n".join(sf.code)
        for i, code in enumerate(sf.code):
            lineno = i + 1
            m = THROW_RE.search(code)
            if m and not SIM_ERROR_NAMES.match(m.group(1)) and \
                    m.group(1) != "throw" and \
                    not sf.allowed(lineno, NAME):
                findings.append(Finding(
                    sf.path, lineno, NAME,
                    f"throw of '{m.group(1)}': src/ throws only "
                    "SimError so the runner can classify every "
                    "outcome (annotate internal control-flow "
                    "exceptions with a reason)"))
            m = CATCH_ALL_RE.search(code)
            if m and not sf.allowed(lineno, NAME):
                # Find the catch block and demand a rethrow inside.
                start = sum(len(l) + 1 for l in sf.code[:i]) + m.end()
                brace = joined.find("{", start)
                close = find_matching_brace(joined, brace) \
                    if brace >= 0 else -1
                body = joined[brace:close + 1] if close > 0 else ""
                if not RETHROW_RE.search(body):
                    findings.append(Finding(
                        sf.path, lineno, NAME,
                        "catch (...) that never rethrows swallows "
                        "every error class; rethrow or annotate "
                        "// analyze: allow(errors): <what swallowing "
                        "buys here>"))
    return findings


def run_ast(ctx):
    ci = ctx.cindex
    findings = []
    seen = set()

    def emit(path, line, message):
        key = (path, line, message[:30])
        if key in seen:
            return
        seen.add(key)
        sf = ctx.file_at(path)
        if sf is not None and sf.allowed(line, NAME):
            return
        findings.append(Finding(path, line, NAME, message))

    for tu, _ in ctx.tus():
        for c in ctx.walk(tu.cursor):
            path, line = ctx.location_of(c)
            if path is None:
                continue
            if not (path in ctx.explicit or path.startswith("src/")):
                continue
            if c.kind == ci.CursorKind.CXX_THROW_EXPR:
                kids = list(c.get_children())
                if not kids:
                    continue  # bare rethrow
                spelled = kids[0].type.get_canonical().spelling
                if "SimError" not in spelled:
                    emit(path, line,
                         f"throw of '{kids[0].type.spelling}': src/ "
                         "throws only SimError so the runner can "
                         "classify every outcome")
            elif c.kind == ci.CursorKind.CXX_CATCH_STMT:
                kids = list(c.get_children())
                has_decl = any(k.kind == ci.CursorKind.VAR_DECL
                               for k in kids)
                if has_decl:
                    continue  # typed catch
                rethrows = any(
                    k.kind == ci.CursorKind.CXX_THROW_EXPR and
                    not list(k.get_children())
                    for k in ctx.walk(c))
                if not rethrows:
                    emit(path, line,
                         "catch (...) that never rethrows swallows "
                         "every error class; rethrow or annotate "
                         "with a reason")
    # assert()/abort() are macros/libc calls the token stream sees more
    # reliably than the AST (assert expands away under NDEBUG); the
    # text rule is authoritative for them and already ran.
    return findings
