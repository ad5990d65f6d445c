"""The differential oracle: original vs. rewritten program on one instance.

Contract (paper Theorem 1, specialised to this reproduction):

* ``optimize_program`` must never raise on a parseable program — extraction
  failures are *classifications* (``STATUS_FAILED``), not crashes;
* every ``success`` variable must carry SQL and an F-IR node; every
  ``failed`` variable must carry a reason;
* when a rewritten program exists, running it against an identical database
  instance must produce the same return value, the same printed output, and
  the same observable ``__out__`` stream as the original;
* round-trip counts of both runs are recorded (a rewrite may legitimately
  issue more queries than the original — Figure 7(a) — so they are reported,
  not asserted).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any

from ..core import optimize_program
from ..db import Connection, EngineDivergenceError
from ..interp import Interpreter
from ..db.types import to_display
from ..interp.values import Entity, ResultCursor, StringBuilder
from ..lang import parse_program
from .dbgen import build_database
from .generator import GeneratedCase

KIND_OK = "ok"
KIND_NO_REWRITE = "no-rewrite"
KIND_DIVERGENCE = "divergence"
KIND_CRASH = "crash"
KIND_ORIGINAL_ERROR = "original-error"
KIND_REWRITTEN_ERROR = "rewritten-error"
KIND_CONTRACT = "contract"
KIND_ENGINE_DIVERGENCE = "engine-divergence"
KIND_LINT_UNSOUND = "lint-unsound"
KIND_ALTERNATIVE_DIVERGED = "alternative-diverged"
KIND_PREPROCESS_DIVERGED = "preprocess-diverged"

#: Verdicts that fail a fuzzing run.
FAILING_KINDS = frozenset(
    {
        KIND_DIVERGENCE,
        KIND_CRASH,
        KIND_ORIGINAL_ERROR,
        KIND_REWRITTEN_ERROR,
        KIND_CONTRACT,
        KIND_ENGINE_DIVERGENCE,
        KIND_LINT_UNSOUND,
        KIND_ALTERNATIVE_DIVERGED,
        KIND_PREPROCESS_DIVERGED,
    }
)


@dataclass
class Verdict:
    """Outcome of one differential run."""

    kind: str
    detail: str = ""
    statuses: dict[str, str] = field(default_factory=dict)
    original_round_trips: int = 0
    rewritten_round_trips: int | None = None
    rewritten_loops: int = 0
    consolidations: int = 0
    #: Non-identity rewrite-space alternatives executed and compared
    #: against the as-written program (0 when the main verdict failed
    #: before the alternative sweep ran).
    alternatives_checked: int = 0

    @property
    def failing(self) -> bool:
        return self.kind in FAILING_KINDS


def normalize(value: Any) -> Any:
    """Canonicalise interpreter values for structural comparison.

    Entities compare by their columns; containers are normalised
    recursively.  Sets become sorted tuples so two runs compare
    independently of iteration order.
    """
    if isinstance(value, Entity):
        return (
            "entity",
            tuple(sorted(value.row.items())),
        )
    if isinstance(value, ResultCursor):
        return tuple(normalize(Entity(row)) for row in value._rows)
    if isinstance(value, StringBuilder):
        return value.to_string()
    if isinstance(value, tuple):
        return tuple(normalize(v) for v in value)
    if isinstance(value, list):
        return [normalize(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((repr(normalize(v)) for v in value)))
    if isinstance(value, dict):
        return tuple(
            sorted((repr(normalize(k)), repr(normalize(v))) for k, v in value.items())
        )
    return value


def _check_report_contract(report) -> str | None:
    """Classification invariants: statuses must be self-consistent."""
    from ..core import STATUS_FAILED, STATUS_SUCCESS

    for name, extraction in report.variables.items():
        if extraction.status == STATUS_SUCCESS:
            if extraction.sql is None or extraction.node is None:
                return f"success variable {name!r} has no SQL/node"
        if extraction.status == STATUS_FAILED and not extraction.reason:
            return f"failed variable {name!r} has no reason"
    if report.extraction_time_ms < 0:
        return "negative extraction_time_ms"
    return None


def _check_lint_soundness(report) -> str | None:
    """Lint/extractor cross-check: success must imply no EQ1xx blocker.

    The extractor gates on the lint layer's blockers, so a successfully
    extracted variable whose loop still carries one means one of the two
    layers regressed — a program the checker calls unsound was silently
    extracted anyway.
    """
    from ..core import STATUS_SUCCESS
    from ..lint.engine import blockers_for, loop_nesting

    nesting = loop_nesting(report.original.function(report.function))
    for name, extraction in report.variables.items():
        if extraction.status != STATUS_SUCCESS:
            continue
        blockers = blockers_for(
            list(report.diagnostics), nesting, extraction.loop_sid, name
        )
        if blockers:
            codes = ", ".join(sorted({d.code for d in blockers}))
            return (
                f"variable {name!r} extracted successfully despite "
                f"soundness blocker(s) {codes}"
            )
    return None


def _check_preprocess_fidelity(
    case: GeneratedCase, original_result, original_interp
) -> tuple[str, str] | None:
    """Raw-vs-preprocessed cross-check.

    ``report.original`` is the *preprocessed* program, so the main
    divergence check never exercises preprocessing itself.  This check
    closes that gap: the program exactly as parsed must behave like the
    preprocessed one the rest of the oracle uses — same return value and
    the same observable stream.  The precision layer's enabling transforms
    (constant folding, dead-branch pruning, copy propagation, cursor-chain
    normalisation) are all on this path, so an unsound rewrite shows up as
    a ``preprocess-diverged`` verdict.

    Prints are rewritten into ``__out__`` appends by preprocessing, so the
    raw run's printed lines are compared against the preprocessed run's
    rendered ``__out__`` values.
    """
    raw_program = parse_program(case.source)
    raw_interp = Interpreter(raw_program, Connection(build_database(case)))
    try:
        raw_result = raw_interp.run(case.function)
    except EngineDivergenceError:
        return (
            KIND_ENGINE_DIVERGENCE,
            f"planned vs reference engines disagree (raw run):\n"
            f"{traceback.format_exc()}",
        )
    except Exception:
        return (
            KIND_PREPROCESS_DIVERGED,
            f"raw program raised where the preprocessed one succeeded:\n"
            f"{traceback.format_exc()}",
        )
    if normalize(raw_result) != normalize(original_result):
        return (
            KIND_PREPROCESS_DIVERGED,
            f"return value: raw={normalize(raw_result)!r} "
            f"preprocessed={normalize(original_result)!r}",
        )
    raw_stream = list(raw_interp.output) + [
        to_display(v) for v in list(raw_interp.last_out or [])
    ]
    pre_stream = list(original_interp.output) + [
        to_display(v) for v in list(original_interp.last_out or [])
    ]
    if raw_stream != pre_stream:
        return (
            KIND_PREPROCESS_DIVERGED,
            f"observable stream: raw={raw_stream!r} preprocessed={pre_stream!r}",
        )
    return None


def run_case(case: GeneratedCase) -> Verdict:
    """Run the full differential check for one case."""
    catalog = case.catalog()
    try:
        report = optimize_program(case.source, case.function, catalog)
    except Exception:
        return Verdict(
            kind=KIND_CRASH,
            detail=f"optimize_program raised:\n{traceback.format_exc()}",
        )

    statuses = {n: v.status for n, v in report.variables.items()}
    contract_error = _check_report_contract(report)
    if contract_error is not None:
        return Verdict(kind=KIND_CONTRACT, detail=contract_error, statuses=statuses)

    lint_error = _check_lint_soundness(report)
    if lint_error is not None:
        return Verdict(kind=KIND_LINT_UNSOUND, detail=lint_error, statuses=statuses)

    original_conn = Connection(build_database(case))
    original_interp = Interpreter(report.original, original_conn)
    try:
        original_result = original_interp.run(case.function)
    except EngineDivergenceError:
        return Verdict(
            kind=KIND_ENGINE_DIVERGENCE,
            detail=f"planned vs reference engines disagree (original run):\n"
            f"{traceback.format_exc()}",
            statuses=statuses,
        )
    except Exception:
        return Verdict(
            kind=KIND_ORIGINAL_ERROR,
            detail=f"original program raised:\n{traceback.format_exc()}",
            statuses=statuses,
        )

    verdict = Verdict(
        kind=KIND_NO_REWRITE,
        statuses=statuses,
        original_round_trips=original_conn.stats.round_trips,
        rewritten_loops=len(report.rewritten_loops),
        consolidations=len(report.consolidations),
    )

    fidelity = _check_preprocess_fidelity(case, original_result, original_interp)
    if fidelity is not None:
        verdict.kind, verdict.detail = fidelity
        return verdict
    if report.rewritten is None:
        _check_alternatives(case, report, catalog, verdict)
        return verdict

    rewritten_conn = Connection(build_database(case))
    rewritten_interp = Interpreter(report.rewritten, rewritten_conn)
    try:
        rewritten_result = rewritten_interp.run(case.function)
    except EngineDivergenceError:
        verdict.kind = KIND_ENGINE_DIVERGENCE
        verdict.detail = (
            f"planned vs reference engines disagree (rewritten run):\n"
            f"{traceback.format_exc()}"
        )
        return verdict
    except Exception:
        verdict.kind = KIND_REWRITTEN_ERROR
        verdict.detail = (
            f"rewritten program raised (original succeeded):\n"
            f"{traceback.format_exc()}"
        )
        return verdict

    verdict.rewritten_round_trips = rewritten_conn.stats.round_trips
    mismatches = []
    if normalize(original_result) != normalize(rewritten_result):
        mismatches.append(
            "return value: original="
            f"{normalize(original_result)!r} rewritten={normalize(rewritten_result)!r}"
        )
    if original_interp.output != rewritten_interp.output:
        mismatches.append(
            f"printed output: original={original_interp.output!r} "
            f"rewritten={rewritten_interp.output!r}"
        )
    if normalize(original_interp.last_out) != normalize(rewritten_interp.last_out):
        mismatches.append(
            "__out__ stream: original="
            f"{normalize(original_interp.last_out)!r} "
            f"rewritten={normalize(rewritten_interp.last_out)!r}"
        )
    if mismatches:
        verdict.kind = KIND_DIVERGENCE
        verdict.detail = "; ".join(mismatches)
    else:
        verdict.kind = KIND_OK
        _check_alternatives(case, report, catalog, verdict)
    return verdict


def _check_alternatives(case: GeneratedCase, report, catalog, verdict: Verdict) -> None:
    """Execute every member of the rewrite space against the as-written run.

    The contract extends Theorem 1 to the whole space: the chosen rewrite
    being equivalent is not enough — every alternative the generator emits
    must be, because a different deployment profile may select it.  Runs
    only when the primary verdict is passing, so failing verdicts keep
    their original kinds (corpus replays depend on them).
    """
    # Function-level import: repro.rewrites.verify imports this module for
    # ``normalize``, so a top-level import would be circular.
    from ..rewrites import generate_alternatives
    from ..rewrites.verify import verify_alternatives

    try:
        sites = generate_alternatives(report, catalog)
    except Exception:
        verdict.kind = KIND_CRASH
        verdict.detail = (
            f"alternative generation raised:\n{traceback.format_exc()}"
        )
        return
    checks = verify_alternatives(
        sites, case.function, lambda: build_database(case)
    )
    for check in checks:
        verdict.alternatives_checked += 1
        if check.equivalent:
            continue
        if check.engine_divergence:
            verdict.kind = KIND_ENGINE_DIVERGENCE
        else:
            verdict.kind = KIND_ALTERNATIVE_DIVERGED
        verdict.detail = (
            f"{check.kind} alternative for loop@{check.loop_sid}: "
            f"{check.detail}"
        )
        return
