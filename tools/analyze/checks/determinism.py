"""determinism — unordered-iteration order, pointer keys, wall clocks,
unseeded RNG.

The repo's bit-identity guarantees (serial == parallel sweeps, golden
snapshot CRCs, byte-compared SEC-DED outcomes) all die the moment an
`std::unordered_map`/`unordered_set` iteration order, a pointer value,
the host clock or an unseeded RNG leaks into simulation output. Four
rules:

  unordered-iter   any iteration over an unordered container in src/
                   (range-for or explicit `.begin()` iterator loop).
                   This deliberately over-approximates "flows into a
                   snapshot / JSON / stat emission / migration
                   decision": proving order-insensitivity (collect then
                   sort; min-scan with a total tie-break) is exactly
                   what the required allow(determinism) annotation
                   documents, one reason per site.
  pointer-key      a map/set keyed on a raw pointer: iteration order and
                   any ordering comparisons follow the allocator, which
                   no seed controls.
  wall-clock       steady/system/high_resolution clock, time(), clock()
                   inside deterministic sim paths (all of src/ except
                   src/runner/, whose wall-clock use — deadlines, ETA,
                   throughput — is orchestration by design).
  unseeded-rng     rand()/srand(), std::random_device and
                   default_random_engine anywhere in shipped code (src/,
                   src/runner/ included, and tools/): results must be
                   platform-stable, so randomness comes from the seeded
                   Pcg32 in src/common/random.hh.

The AST backend types the range expression itself; the text backend
tracks names declared with an unordered type anywhere in the scanned
set and skips names that are ambiguous (also declared as an ordered
container elsewhere), so it never false-positives — libclang narrows,
text never widens wrongly.
"""

import re

from ..textlib import SEMANTIC_DIRS, SHIPPED_DIRS, Finding

NAME = "determinism"

SIM_PATH_EXCLUDES = ("src/runner/",)

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*"
    r"(\w+)\s*(?:;|=|\{)")
ORDERED_DECL_RE = re.compile(
    r"\b(?:vector|array|deque|list|map|set|multimap|multiset|string|"
    r"span|optional)\s*<[^;{}()]*>\s*(\w+)\s*(?:;|=|\{)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([A-Za-z_]\w*)\s*\)")
ITER_LOOP_RE = re.compile(r"\bfor\s*\([^;)]*=\s*([A-Za-z_]\w*)\.begin\(\)")
# First template argument of a map/set ends in `*` -> pointer key.
PTR_KEY_RE = re.compile(
    r"\b(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"[A-Za-z_][\w:<>\s]*\*\s*[,>]")
WALL_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"
    r"|(?<![\w:])(?:time|clock)\s*\(\s*(?:NULL|nullptr)?\s*\)")
RNG_RE = re.compile(
    r"(?<![\w:])s?rand\s*\(|std::random_device|default_random_engine")


def in_sim_path(path):
    return path.startswith("src/") and \
        not path.startswith(SIM_PATH_EXCLUDES)


def _unambiguous_unordered_names(files):
    """Names declared with an unordered container type somewhere and
    never with an ordered container type anywhere (text mode cannot
    resolve scopes, so a name like `counts_` that is an unordered map in
    one class and a vector in another is left to the AST backend)."""
    unordered, ordered = set(), set()
    for sf in files:
        for i, code in enumerate(sf.code):
            joined = code if ">" in code else code + " " + \
                (sf.code[i + 1] if i + 1 < len(sf.code) else "")
            for m in UNORDERED_DECL_RE.finditer(joined):
                unordered.add(m.group(1))
            for m in ORDERED_DECL_RE.finditer(joined):
                ordered.add(m.group(1))
    return unordered - ordered


def run_text(ctx):
    findings = []
    names = _unambiguous_unordered_names(
        [sf for sf in ctx.files if ctx.in_scope(sf.path, SEMANTIC_DIRS)])
    for sf in ctx.files:
        if ctx.in_scope(sf.path, SHIPPED_DIRS):
            for i, code in enumerate(sf.code):
                if RNG_RE.search(code) and not sf.allowed(i + 1, NAME):
                    findings.append(Finding(
                        sf.path, i + 1, NAME,
                        "unseeded or platform-dependent RNG; use the "
                        "seeded Pcg32 from src/common/random.hh"))
        explicit = sf.path in ctx.explicit
        if not (explicit or sf.path.startswith("src/")):
            continue
        for i, code in enumerate(sf.code):
            lineno = i + 1
            for rx in (RANGE_FOR_RE, ITER_LOOP_RE):
                m = rx.search(code)
                if m and m.group(1) in names and \
                        not sf.allowed(lineno, NAME):
                    findings.append(Finding(
                        sf.path, lineno, NAME,
                        f"iteration over unordered container "
                        f"'{m.group(1)}': bucket order is not part of "
                        "the seed; sort first or annotate "
                        "// analyze: allow(determinism): <why the "
                        "order cannot leak>"))
            if PTR_KEY_RE.search(code) and not sf.allowed(lineno, NAME):
                findings.append(Finding(
                    sf.path, lineno, NAME,
                    "pointer-valued map/set key: ordering follows the "
                    "allocator, not the seed; key on a stable id"))
            if (explicit or in_sim_path(sf.path)) and \
                    WALL_CLOCK_RE.search(code) and \
                    not sf.allowed(lineno, NAME):
                findings.append(Finding(
                    sf.path, lineno, NAME,
                    "wall clock in a sim path: simulated behaviour must "
                    "be a pure function of the seed (watchdog-style "
                    "uses need an annotated reason)"))
    return findings


def _is_unordered_type(type_spelling):
    return "unordered_map<" in type_spelling or \
        "unordered_set<" in type_spelling or \
        "unordered_multimap<" in type_spelling or \
        "unordered_multiset<" in type_spelling


def _pointer_key(type_spelling):
    m = re.search(
        r"(?:unordered_)?(?:map|set|multimap|multiset)<([^,>]*)[,>]",
        type_spelling)
    return m is not None and m.group(1).rstrip().endswith("*")


def run_ast(ctx):
    ci = ctx.cindex
    findings = []
    seen = set()

    def emit(path, line, message):
        key = (path, line, message[:40])
        if key in seen:
            return
        seen.add(key)
        sf = ctx.file_at(path)
        if sf is not None and sf.allowed(line, NAME):
            return
        findings.append(Finding(path, line, NAME, message))

    for tu, _tu_path in ctx.tus():
        for c in ctx.walk(tu.cursor):
            path, line = ctx.location_of(c)
            if path is None:
                continue
            explicit = path in ctx.explicit
            if not (explicit or path.startswith("src/")):
                continue
            kind = c.kind
            if kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
                children = list(c.get_children())
                if not children:
                    continue
                range_expr = children[-2] if len(children) >= 2 else None
                if range_expr is None:
                    continue
                spelled = range_expr.type.get_canonical().spelling
                if _is_unordered_type(spelled):
                    emit(path, line,
                         "iteration over unordered container "
                         f"(range type: {range_expr.type.spelling}): "
                         "bucket order is not part of the seed; sort "
                         "first or annotate // analyze: "
                         "allow(determinism): <why>")
            elif kind in (ci.CursorKind.FIELD_DECL,
                          ci.CursorKind.VAR_DECL):
                spelled = c.type.get_canonical().spelling
                if _pointer_key(spelled):
                    emit(path, line,
                         f"'{c.spelling}' keys a map/set on a raw "
                         "pointer: ordering follows the allocator, not "
                         "the seed; key on a stable id")
            elif kind == ci.CursorKind.CALL_EXPR and \
                    (explicit or in_sim_path(path)):
                if c.spelling in ("time", "clock", "rand", "srand"):
                    emit(path, line,
                         f"{c.spelling}() in a sim path: simulated "
                         "behaviour must be a pure function of the "
                         "seed")
        # Clock type references are cheaper to catch textually per TU
        # file set; the text backend already covers them, so the AST
        # pass reuses it for wall-clock only via the driver (both
        # backends run the text wall-clock rule; findings dedupe).
    return findings
