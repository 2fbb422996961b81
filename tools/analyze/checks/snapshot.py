"""snapshot — member coverage of checkpoint codecs.

Every class declaring both `save(snap::Writer&)` and
`restore(snap::Reader&)` must reference each of its own non-static data
members in its codec. A member added to a class but not to its codec
silently rots every checkpoint — the golden bit-identity tests cannot
catch a field that is *consistently* dropped.

The codec is the class's `io` body when it has one (the one
`template <class Ar> void io(Ar&)` that save() and restore() both run,
inline or as `Class::io` in the sibling .cc): each member must be named
there. A class without one keeps a save/restore pair, and each member
must appear in both bodies.

Exemptions (both backends):
  - pointer / reference members (not owned, rewired on restore)
  - members whose declaration (or the line above) carries a
    `no-snapshot(<why>)` annotation
  - abstract interfaces whose save/restore are both pure virtual
  - `// analyze: allow(snapshot)` on the member declaration line

The AST backend walks real member references in the codec bodies. The
text backend parses each header's class bodies and greps the codecs,
found inline or in the sibling .cc.
"""

import re

from ..textlib import (HEADER_EXTENSIONS, SHIPPED_DIRS, Finding,
                       find_matching_brace)

NAME = "snapshot"

NO_SNAPSHOT_RE = re.compile(r"no-snapshot\(|not owned")

CLASS_RE = re.compile(r"^\s*(?:class|struct)\s+(\w+)[^;{]*\{", re.MULTILINE)
MEMBER_RE = re.compile(
    r"""^\s*
        (?!return|delete|typedef|using|friend|static|constexpr|if|for|while)
        [\w:<>,\s]+?               # type tokens (no * or & anywhere)
        \s([a-z]\w*_)\s*           # member name, trailing underscore
        (?:=[^;]*|\{[^;]*\})?;     # optional initializer
        """,
    re.VERBOSE,
)
NESTED_RE = re.compile(r"\s*(?:class|struct|enum|union)\s+\w+[^;]*$")
PURE_SAVE_RE = re.compile(r"save\s*\(snap::Writer[^)]*\)\s*const\s*=\s*0")
PURE_RESTORE_RE = re.compile(r"restore\s*\(snap::Reader[^)]*\)\s*=\s*0")
IO_RE = re.compile(r"void\s+io\s*\(\s*\w+\s*&")


def _function_body(text, sig_re):
    """The body of the first definition whose signature matches; a
    declaration (signature then `;`) is skipped, not mistaken for it."""
    for m in sig_re.finditer(text):
        i = m.end()
        while i < len(text) and text[i] not in "{;":
            i += 1
        if i >= len(text) or text[i] == ";":
            continue
        close = find_matching_brace(text, i)
        if close > 0:
            return text[i:close + 1]
    return None


def _class_bodies(text):
    """Yields (name, body, line of the class head) per class/struct."""
    for m in CLASS_RE.finditer(text):
        open_pos = text.find("{", m.start())
        close = find_matching_brace(text, open_pos)
        if close < 0:
            continue
        yield m.group(1), text[open_pos:close + 1], \
            text.count("\n", 0, m.start()) + 1


def _own_lines(body):
    """The class body's lines with nested class/struct/enum/union bodies
    blanked, so only the class's own members remain."""
    out = []
    depth = 0
    for line in body[1:-1].split("\n"):
        starts_nested = depth == 0 and NESTED_RE.match(line)
        depth += line.count("{") - line.count("}")
        if starts_nested or depth > 0 or \
                (depth == 0 and re.match(r"\s*}", line)):
            out.append("")
        else:
            out.append(line)
    return out


def _check_header(ctx, sf, findings):
    sibling = sf.path[:sf.path.rfind(".")] + ".cc"
    impl_sf = ctx.file_at(sibling)
    impl = impl_sf.text if impl_sf is not None else ""
    for name, body, base_line in _class_bodies(sf.text):
        if "save(snap::Writer" not in body or \
                "restore(snap::Reader" not in body:
            continue
        # Abstract interfaces have no state of their own; every concrete
        # implementation is checked at its own definition.
        if PURE_SAVE_RE.search(body) and PURE_RESTORE_RE.search(body):
            continue
        io_body = (
            _function_body(body, IO_RE)
            or _function_body(impl, re.compile(
                rf"void\s+{name}::io\s*\(\s*\w+\s*&")))
        if io_body is not None:
            save_body = restore_body = io_body
        else:
            save_body = (
                _function_body(body, re.compile(
                    r"void\s+save\s*\(snap::Writer[^)]*\)\s*const"))
                or _function_body(impl, re.compile(
                    rf"void\s+{name}::save\s*\(snap::Writer")))
            restore_body = (
                _function_body(body, re.compile(
                    r"void\s+restore\s*\(snap::Reader[^)]*\)"))
                or _function_body(impl, re.compile(
                    rf"void\s+{name}::restore\s*\(snap::Reader")))
        if save_body is None or restore_body is None:
            if sf.allowed(base_line, NAME):
                continue
            findings.append(Finding(
                sf.path, base_line, NAME,
                f"{name} declares save/restore but a body was not found "
                f"(looked inline and in {sibling})"))
            continue
        prev = ""
        for offset, line in enumerate(_own_lines(body)):
            m = MEMBER_RE.match(line)
            decl = line.split("//")[0]
            lineno = base_line + offset + 1
            if m and "*" not in decl and "&" not in decl and \
                    not NO_SNAPSHOT_RE.search(line) and \
                    not NO_SNAPSHOT_RE.search(prev) and \
                    not sf.allowed(lineno, NAME):
                member = m.group(1)
                if member not in save_body:
                    findings.append(Finding(
                        sf.path, lineno, NAME,
                        f"{name}::{member} is not written by "
                        f"{'io' if io_body is not None else 'save'}() — a "
                        "checkpoint would silently drop it (mark the decl "
                        "no-snapshot(<why>) if that is intentional)"))
                elif member not in restore_body:
                    findings.append(Finding(
                        sf.path, lineno, NAME,
                        f"{name}::{member} is written by save() but never "
                        "read back by restore()"))
            prev = line


def run_text(ctx):
    findings = []
    for sf in ctx.files:
        if sf.path.endswith(HEADER_EXTENSIONS) and \
                ctx.in_scope(sf.path, SHIPPED_DIRS):
            _check_header(ctx, sf, findings)
    return findings


def _method(cursor, ci, name, param_type):
    for c in cursor.get_children():
        if c.kind == ci.CursorKind.CXX_METHOD and c.spelling == name:
            params = [a for a in c.get_arguments()]
            if len(params) == 1 and param_type in params[0].type.spelling:
                return c
    return None


def _io_method(cursor, ci):
    for c in cursor.get_children():
        if c.kind in (ci.CursorKind.FUNCTION_TEMPLATE,
                      ci.CursorKind.CXX_METHOD) and c.spelling == "io":
            return c
    return None


def _member_refs(body_cursor, ci, walk):
    refs = set()
    for c in walk(body_cursor):
        if c.kind in (ci.CursorKind.MEMBER_REF_EXPR,
                      ci.CursorKind.MEMBER_REF,
                      ci.CursorKind.DECL_REF_EXPR):
            refs.add(c.spelling)
    return refs


def _decl_exempt(sf, line):
    if sf is None:
        return False
    for ln in (line, line - 1):
        if 1 <= ln <= len(sf.raw_lines) and \
                NO_SNAPSHOT_RE.search(sf.raw_lines[ln - 1]):
            return True
    return False


def run_ast(ctx):
    ci = ctx.cindex
    findings = []
    seen_classes = set()
    for tu, _ in ctx.tus():
        for c in ctx.walk(tu.cursor):
            if c.kind not in (ci.CursorKind.CLASS_DECL,
                              ci.CursorKind.STRUCT_DECL):
                continue
            if not c.is_definition():
                continue
            path, line = ctx.location_of(c)
            if path is None or not (path in ctx.explicit or
                                    path.startswith("src/")):
                continue
            key = (path, line, c.spelling)
            if key in seen_classes:
                continue
            seen_classes.add(key)
            save = _method(c, ci, "save", "snap::Writer")
            restore = _method(c, ci, "restore", "snap::Reader")
            if save is None or restore is None:
                continue
            if save.is_pure_virtual_method() and \
                    restore.is_pure_virtual_method():
                continue
            io = _io_method(c, ci)
            if io is not None:
                # One body serves both directions.
                save_def = restore_def = io.get_definition()
            else:
                save_def = save.get_definition()
                restore_def = restore.get_definition()
            if save_def is None or restore_def is None:
                # Out-of-line bodies live in the sibling .cc, which is
                # its own TU; that TU re-visits this class definition
                # with the bodies resolvable, so skip here rather than
                # false-positive. A class whose codec bodies exist in
                # *no* TU never had them compiled at all.
                seen_classes.discard(key)
                continue
            save_refs = _member_refs(save_def, ci, ctx.walk)
            restore_refs = _member_refs(restore_def, ci, ctx.walk)
            sf = ctx.file_at(path)
            for field in c.get_children():
                if field.kind != ci.CursorKind.FIELD_DECL:
                    continue
                ft = field.type.get_canonical()
                if ft.kind in (ci.TypeKind.POINTER,
                               ci.TypeKind.LVALUEREFERENCE,
                               ci.TypeKind.RVALUEREFERENCE):
                    continue  # not owned: never serialized
                fpath, fline = ctx.location_of(field)
                fsf = ctx.file_at(fpath) if fpath else sf
                if _decl_exempt(fsf, fline):
                    continue
                if fsf is not None and fsf.allowed(fline, NAME):
                    continue
                member = field.spelling
                if member not in save_refs:
                    findings.append(Finding(
                        fpath or path, fline or line, NAME,
                        f"{c.spelling}::{member} is not written by "
                        f"{'io' if io is not None else 'save'}() — a "
                        "checkpoint would silently drop it (mark the "
                        "decl no-snapshot(<why>) if intentional)"))
                elif member not in restore_refs:
                    findings.append(Finding(
                        fpath or path, fline or line, NAME,
                        f"{c.spelling}::{member} is written by save() "
                        "but never read back by restore()"))
    return findings
