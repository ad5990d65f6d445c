"""Dependent aggregations — argmax/argmin (paper Appendix B).

A loop such as::

    best = null; scoreMax = 0;
    for (t : Q) {
        if (t.score > scoreMax) { scoreMax = t.score; best = t.name; }
    }

fails precondition P2 for ``best`` (it carries a dependence on ``scoreMax``).
Appendix B relaxes this: the pair can be folded jointly, and for the special
case of argmax/argmin an equivalent SQL query exists using ORDER BY + LIMIT.
This module detects the pattern on the Loop nodes and produces the
ORDER BY/LIMIT form directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import (
    AggCall,
    AggItem,
    Aggregate,
    Limit,
    Lit,
    Project,
    ProjectItem,
    RelExpr,
    Select,
    Sort,
    SortKey,
)
from ..ir import (
    DagBuilder,
    EBoundVar,
    EConst,
    ELoop,
    ENode,
    EOp,
    EQuery,
)
from .scalarize import CapableButUnimplemented, NotScalarizable, scalarize

_MAX_OPS = {">", ">="}
_MIN_OPS = {"<", "<="}


@dataclass
class ArgmaxMatch:
    """A detected dependent-aggregation pair."""

    agg_var: str  # the max/min accumulator (e.g. scoreMax)
    arg_var: str  # the dependent variable (e.g. best)
    direction: str  # "max" or "min"
    measure: ENode  # e(t): the compared expression
    payload: ENode  # g(t): the value assigned to arg_var


def detect_argmax(loop: ELoop, siblings: dict[str, ELoop]) -> ArgmaxMatch | None:
    """Detect the argmax/argmin pattern for ``loop`` (the dependent var).

    ``siblings`` maps variable → its Loop node for the same source loop.
    The dependent variable's body must be ``?[cmp(e, ⟨u⟩), g, ⟨self⟩]`` with
    a sibling ``u`` whose body is ``max/min(⟨u⟩, e)`` over the same ``e``.
    """
    body = loop.body
    if not (isinstance(body, EOp) and body.op == "?" and len(body.operands) == 3):
        return None
    cond, if_true, if_false = body.operands
    if not (isinstance(if_false, EBoundVar) and if_false.name == loop.var):
        return None
    if not (isinstance(cond, EOp) and len(cond.operands) == 2):
        return None
    if cond.op in _MAX_OPS:
        direction = "max"
    elif cond.op in _MIN_OPS:
        direction = "min"
    else:
        return None
    measure, other = cond.operands
    if not isinstance(other, EBoundVar):
        return None
    agg_var = other.name
    sibling = siblings.get(agg_var)
    if sibling is None or sibling.loop_sid != loop.loop_sid:
        return None
    # The sibling must be the canonicalised max/min accumulation of the same
    # measure expression.
    expected = EOp(direction, (EBoundVar(agg_var), measure))
    if sibling.body != expected:
        return None
    return ArgmaxMatch(
        agg_var=agg_var,
        arg_var=loop.var,
        direction=direction,
        measure=measure,
        payload=if_true,
    )


def _peel_sort(rel: RelExpr) -> tuple[RelExpr, tuple[SortKey, ...]]:
    """Split a source into its unordered form and its τ keys, if any."""
    if isinstance(rel, Sort):
        inner, keys = _peel_sort(rel.child)
        return inner, rel.keys + keys
    if isinstance(rel, Select):
        inner, keys = _peel_sort(rel.child)
        if keys:
            return Select(inner, rel.pred), keys
        return rel, ()
    return rel, ()


def argmax_to_algebra(
    loop: ELoop, match: ArgmaxMatch, sibling_init: ENode, dag: DagBuilder
) -> ENode | None:
    """Build the ORDER BY + LIMIT form for the dependent variable.

    Returns ``?[updated-at-least-once, π_g(limit₁(τ_e(Q))), init]`` where the
    guard compares the aggregate against the accumulator's initial value
    (strict comparison semantics: rows not exceeding the initial value never
    update the pair).
    """
    if not isinstance(loop.source, EQuery):
        return None
    source = loop.source
    try:
        measure_s = scalarize(match.measure, loop.cursor)
        payload_s = scalarize(match.payload, loop.cursor)
    except (NotScalarizable, CapableButUnimplemented):
        return None

    ascending = match.direction == "min"
    # The original picks the *first* strict improvement in iteration order,
    # so among measure ties the first row of the source query wins.  An HQL
    # `order by` on the source therefore becomes the tiebreaker keys, and the
    # source itself is used unordered (a τ under γ/LIMIT-1 renders as an
    # ORDER BY the enclosing block cannot resolve).
    unordered, tiebreak = _peel_sort(source.rel)
    pick = Project(
        Limit(Sort(unordered, (SortKey(measure_s, ascending),) + tiebreak), 1),
        (ProjectItem(payload_s, "picked"),),
    )
    picked = dag.scalar_query(pick, source.params)

    agg_query = dag.scalar_query(
        Aggregate(
            unordered,
            (),
            (AggItem(AggCall(match.direction, measure_s), "agg"),),
        ),
        source.params,
    )
    if isinstance(sibling_init, EConst) and sibling_init.value is None:
        # Initial value is null: update happens whenever any row exists —
        # a non-empty aggregate implies an update.
        guard = dag.op("not_null", agg_query)
    else:
        cmp_op = ">" if match.direction == "max" else "<"
        guard = dag.op(cmp_op, agg_query, sibling_init)
    init = loop.init
    return dag.intern(EOp("?", (guard, picked, init)))


def try_dependent_aggregation(
    loop: ELoop, siblings: dict[str, ELoop], dag: DagBuilder
) -> ENode | None:
    """Full argmax pipeline: detect + build; None when inapplicable."""
    match = detect_argmax(loop, siblings)
    if match is None:
        return None
    sibling = siblings[match.agg_var]
    return argmax_to_algebra(loop, match, sibling.init, dag)
