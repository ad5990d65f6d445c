"""Pass registry and the shared analysis context.

A lint *pass* is a function ``(LintContext) -> Iterable[Diagnostic]``
registered with the :func:`lint_pass` decorator.  The engine runs every
registered pass over one function at a time and merges the results.

Passes see two views of the function:

* ``ctx.func`` — the **preprocessed** AST (the exact program the extractor
  analyses: prints rewritten to ``__out__`` appends, cursor ``while`` loops
  normalised to ``for``).  Soundness passes (EQ1xx) run here so their
  verdicts line up statement-for-statement with the D-IR builder.
* ``ctx.raw_func`` — the AST **as parsed**.  Anti-pattern passes (EQ3xx)
  run here because normalisation erases the idioms they look for (e.g.
  ``executeQueryCursor`` becomes ``executeQuery``).

Both views share source spans: preprocessing preserves ``line``/``col`` on
every statement it rewrites in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..analysis import (
    EffectSummary,
    FunctionIndex,
    PointsToResult,
    analyze_pointsto,
    function_index,
)
from ..lang import FunctionDef, Node, Program
from .codes import code_info
from .diagnostics import Diagnostic, Severity, SourceSpan


@dataclass
class LintContext:
    """Everything a pass may need about the function under analysis."""

    program: Program  # preprocessed
    raw_program: Program  # as parsed
    function: str
    effects: dict[str, EffectSummary] = field(default_factory=dict)
    #: When False, precision analyses (points-to) are disabled and passes
    #: must fall back to their purely syntactic verdicts.
    precision: bool = True
    _pointsto: PointsToResult | None = field(default=None, repr=False)

    @property
    def pointsto(self) -> PointsToResult | None:
        """Flow-sensitive points-to facts for ``ctx.func`` (lazily computed).

        ``None`` when the precision layer is disabled — passes treat that
        exactly like "no proof available".
        """
        if not self.precision:
            return None
        if self._pointsto is None:
            self._pointsto = analyze_pointsto(self.func, self.effects)
        return self._pointsto

    @property
    def func(self) -> FunctionDef:
        return self.program.function(self.function)

    @property
    def raw_func(self) -> FunctionDef:
        return self.raw_program.function(self.function)

    @property
    def index(self) -> FunctionIndex:  # of the preprocessed function
        return function_index(self.func)

    @property
    def raw_index(self) -> FunctionIndex:  # of the function as parsed
        return function_index(self.raw_func)

    def diag(
        self,
        code: str,
        node: Node,
        detail: str = "",
        *,
        variable: str = "",
        loop_sid: int = -1,
        severity: Severity | None = None,
    ) -> Diagnostic:
        """Build a diagnostic for ``code`` anchored at ``node``'s span.

        ``severity`` overrides the code's registered severity — used to
        downgrade an EQ1xx blocker to :attr:`Severity.INFO` when a static
        proof discharges it (see :attr:`Diagnostic.is_blocker`).
        """
        info = code_info(code)
        message = f"{info.title}: {detail}" if detail else info.title
        return Diagnostic(
            span=SourceSpan.of(node),
            code=code,
            severity=info.severity if severity is None else severity,
            message=message,
            function=self.function,
            variable=variable,
            loop_sid=loop_sid,
            hint=info.hint,
        )


LintPass = Callable[[LintContext], Iterable[Diagnostic]]

_PASSES: list[tuple[str, tuple[str, ...], LintPass]] = []


def lint_pass(name: str, codes: tuple[str, ...]):
    """Register a pass.  ``codes`` documents (and validates) what it emits."""
    for code in codes:
        code_info(code)  # fail fast on typos at import time

    def register(fn: LintPass) -> LintPass:
        _PASSES.append((name, codes, fn))
        return fn

    return register


def registered_passes() -> list[tuple[str, tuple[str, ...], LintPass]]:
    """The registered passes, in registration order."""
    return list(_PASSES)


def run_passes(ctx: LintContext) -> list[Diagnostic]:
    """Run every registered pass and return sorted, de-duplicated findings."""
    findings: set[Diagnostic] = set()
    for _name, codes, fn in _PASSES:
        for diag in fn(ctx):
            if diag.code not in codes:
                raise AssertionError(
                    f"pass {_name!r} emitted undeclared code {diag.code}"
                )
            findings.add(diag)
    return sorted(findings)
