"""Checker registry for the static analysis suite.

Each checker module exposes:
  NAME       the check id used in findings and allow() suppressions
  run_text   degraded backend over SourceFile objects (always available)
  run_ast    AST backend over libclang TUs (None = text is authoritative)

Order here is the report order.
"""

from . import determinism
from . import snapshot
from . import errors
from . import layering
from . import fault_coverage
from . import include_hygiene
from . import style

ALL = [determinism, snapshot, errors, layering, fault_coverage,
       include_hygiene, style]

BY_NAME = {m.NAME: m for m in ALL}
