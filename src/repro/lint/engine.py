"""The lint engine: run every pass over a program, gate extraction.

Entry points:

* :func:`lint_function` — findings for one function of a source text or
  parsed program;
* :func:`lint_program` — findings for every function, as a
  :class:`LintReport` with text/JSON rendering;
* :func:`lint_preprocessed` — the extractor's entry: it already holds both
  the raw and the preprocessed ASTs, so no re-parsing happens per call;
* :func:`loop_nesting` / :func:`blockers_for` — the soundness gate: which
  EQ1xx findings forbid extracting a given variable from a given loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import function_effects, function_index
from ..ir import preprocess_program
from ..lang import FunctionDef, Program, parse_program
from .diagnostics import Diagnostic, Severity
from .registry import LintContext, run_passes

# Importing the passes module registers every pass.
from . import passes as _passes  # noqa: F401  (import for side effect)


def _as_program(source: str | Program) -> Program:
    return parse_program(source) if isinstance(source, str) else source


def lint_preprocessed(
    program: Program,
    raw_program: Program,
    function: str,
    *,
    precision: bool = True,
) -> list[Diagnostic]:
    """Run all passes for one function given both AST views (no parsing).

    ``precision`` must match the flag ``program`` was preprocessed with:
    it additionally enables points-to-verified blocker downgrades.
    """
    effects = function_effects(program)
    return run_passes(
        LintContext(program, raw_program, function, effects, precision=precision)
    )


def lint_function(
    source: str | Program, function: str, *, precision: bool = True
) -> list[Diagnostic]:
    """Parse/preprocess as needed and lint one function."""
    raw = _as_program(source)
    return lint_preprocessed(
        preprocess_program(raw, precision=precision),
        raw,
        function,
        precision=precision,
    )


@dataclass
class LintReport:
    """All findings for one program (or source file)."""

    functions: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def blockers(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_blocker]

    @property
    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def counts(self) -> dict[str, int]:
        result = {str(s): 0 for s in Severity}
        for diag in self.diagnostics:
            result[str(diag.severity)] += 1
        return result

    def to_dict(self) -> dict:
        return {
            "functions": list(self.functions),
            "counts": self.counts(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render_text(self, path: str = "") -> str:
        if not self.diagnostics:
            where = f"{path}: " if path else ""
            return f"{where}clean ({len(self.functions)} function(s) checked)"
        return "\n".join(d.render(path) for d in self.diagnostics)


def lint_program(source: str | Program, *, precision: bool = True) -> LintReport:
    """Lint every function of a program."""
    raw = _as_program(source)
    preprocessed = preprocess_program(raw, precision=precision)
    effects = function_effects(preprocessed)
    report = LintReport(functions=[f.name for f in raw.functions])
    for func in raw.functions:
        ctx = LintContext(preprocessed, raw, func.name, effects, precision=precision)
        report.diagnostics.extend(run_passes(ctx))
    report.diagnostics.sort()
    return report


# ----------------------------------------------------------------------
# The extraction gate


def loop_nesting(func: FunctionDef) -> dict[int, frozenset[int]]:
    """Map each ``ForEach`` sid to the sids of all loops nested under it,
    itself included.  A blocker found in an inner loop also forbids
    extracting from any enclosing loop: the builder translates inner loops
    first, and their failure poisons the enclosing expression."""
    index = function_index(func)
    return {loop.sid: index.info(loop).nested for loop in index.cursor_loops}


def blockers_for(
    diagnostics: list[Diagnostic],
    nesting: dict[int, frozenset[int]],
    loop_sid: int,
    variable: str,
) -> list[Diagnostic]:
    """EQ1xx findings that forbid extracting ``variable`` from ``loop_sid``.

    Loop-wide blockers (no ``variable``) apply to the loop and every loop
    nested under it; variable-scoped blockers apply only when they name the
    extraction target.
    """
    if loop_sid < 0:
        return []
    covered = nesting.get(loop_sid, frozenset({loop_sid}))
    hits = []
    for diag in diagnostics:
        if not diag.is_blocker or diag.loop_sid not in covered:
            continue
        if diag.variable and diag.variable != variable:
            continue
        hits.append(diag)
    return hits
