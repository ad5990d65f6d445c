"""Soundness-precondition checker and coded diagnostics engine.

The lint layer answers two questions the extractor alone cannot:

* **Why not?** — every extraction bail-out becomes a stable, coded
  diagnostic (``EQ1xx`` soundness blockers, ``EQ2xx`` extraction-quality
  warnings, ``EQ3xx`` application anti-patterns) with a source span;
* **Is it safe?** — the ``EQ1xx`` passes run *before* translation and gate
  it: a loop carrying a blocker is never extracted, closing gaps where the
  D-IR builder would silently assume purity (unknown callees, aliased
  entities, re-consumed cursors).

See ``INTERNALS.md`` §11 for the pass architecture and the full code
table, and ``API.md`` for the public entry points.
"""

from .codes import BLOCKER_CODES, CODES, CodeInfo, code_info
from .diagnostics import Diagnostic, Severity, SourceSpan
from .engine import (
    LintReport,
    blockers_for,
    lint_function,
    lint_preprocessed,
    lint_program,
    loop_nesting,
)
from .registry import LintContext, lint_pass, registered_passes

# The directory runner the service is built on imports repro.core (batch.pool
# runs extract_sql), and repro.core imports this package for the extraction
# gate.  Loading the service symbols lazily keeps that import graph acyclic.
_SERVICE_EXPORTS = (
    "LintScanReport",
    "lint_cache_key",
    "lint_directory",
    "lint_unit",
)


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BLOCKER_CODES",
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "LintContext",
    "LintReport",
    "LintScanReport",
    "Severity",
    "SourceSpan",
    "blockers_for",
    "code_info",
    "lint_cache_key",
    "lint_directory",
    "lint_function",
    "lint_pass",
    "lint_preprocessed",
    "lint_program",
    "lint_unit",
    "loop_nesting",
    "registered_passes",
]
