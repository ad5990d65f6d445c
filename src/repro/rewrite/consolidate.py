"""Query consolidation inside cursor loops (paper Appendix B, Fig 12→13).

When a cursor loop interleaves data access with presentation logic — it
iterates one query and issues correlated scalar queries per row — the whole
loop cannot be replaced (the presentation stays), but its *data access* can
be consolidated into a single OUTER APPLY query:

    Q1 OUTER APPLY Q2 OUTER APPLY ... (Figure 13)

The loop then iterates the consolidated query and each inner
``executeScalar`` becomes an attribute read on the cursor.  Conditional
queries (``if (mode == "online") s = executeScalar(...)``) keep their guard
in the program and additionally push it into the applied subquery when the
condition is expressible over the cursor's columns, exactly as Figure 13's
``and Q1.applnMode = 'online'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import Catalog, RelExpr, Select
from ..fir import CapableButUnimplemented, NotScalarizable, scalarize
from ..ir import DIRBuilder, DIRContext, EQuery, EScalarQuery, EVar, ENode
from ..ir.subst import bind_vars
from ..lang import (
    Assign,
    Block,
    Call,
    ForEach,
    If,
    MethodCall,
    Name,
    Program,
    StringLit,
    child_blocks,
    clone_statements,
    number_statements,
)
from ..rules.decorrelate import (
    DecorrelationError,
    decorrelate_for_apply,
    ensure_alias,
    rename_single_output,
    split_params,
)
from ..sqlgen import SqlGenError, render_rel


@dataclass
class Consolidation:
    """One consolidated loop."""

    loop_sid: int
    sql: str
    queries_merged: int
    rel: RelExpr | None = None


@dataclass
class _Candidate:
    assign: Assign
    node: EScalarQuery
    guards: list[ENode] = field(default_factory=list)


def consolidate_loops(
    program: Program,
    function: str,
    catalog: Catalog,
    dialect: str = "repro",
) -> tuple[Program, list[Consolidation]]:
    """Consolidate correlated scalar queries in every eligible cursor loop.

    Returns (rewritten copy, consolidation records); the copy has its own
    statements and shares expressions with ``program``, which is left as it
    was.  Loops without at least one correlated scalar query are left
    untouched.
    """
    result = clone_statements(program)
    func = result.function(function)
    records: list[Consolidation] = []
    context = DIRContext(program=result)
    builder = DIRBuilder(context)

    def visit_block(block: Block) -> None:
        for index, stmt in enumerate(block.statements):
            for child in child_blocks(stmt):
                visit_block(child)
            if isinstance(stmt, ForEach):
                record = _consolidate_one(stmt, block, index, builder, dialect)
                if record is not None:
                    records.append(record)

    visit_block(func.body)
    if records:
        number_statements(result)
    return result, records


def _consolidate_one(
    loop: ForEach, block: Block, loop_index: int, builder: DIRBuilder, dialect: str
) -> Consolidation | None:
    # Resolve the iterated query: either inline (`for (t : executeQuery(...))`)
    # or through the defining assignment earlier in the same block.
    defining_assign: Assign | None = None
    if isinstance(loop.iterable, Call):
        source_node = builder._convert(loop.iterable, {})
    elif isinstance(loop.iterable, Name):
        for prior in reversed(block.statements[:loop_index]):
            if isinstance(prior, Assign) and prior.target == loop.iterable.ident:
                defining_assign = prior
                break
        if defining_assign is None or not isinstance(defining_assign.value, Call):
            return None
        source_node = builder._convert(defining_assign.value, {})
    else:
        return None
    if not isinstance(source_node, EQuery):
        return None

    candidates = _collect_candidates(loop.body, loop.var, builder)
    correlated = [c for c in candidates if _is_correlated(c.node, loop.var)]
    if not correlated:
        return None

    taken: set[str] = set()
    left_rel, left_alias = ensure_alias(source_node.rel, taken, "q1")
    taken.add(left_alias)

    rel: RelExpr = left_rel
    rewrites: list[tuple[Assign, str]] = []
    merged = 0
    for index, candidate in enumerate(correlated):
        bound = bind_vars(candidate.node, {loop.var}, builder.dag)
        assert isinstance(bound, EScalarQuery)
        try:
            bindings = split_params(bound.params, loop.var, left_alias)
        except DecorrelationError:
            continue
        if bindings.outer:
            continue  # parameters beyond the cursor: leave this query alone
        inner = decorrelate_for_apply(bound.rel, bindings)
        inner = _push_guards(inner, candidate.guards, loop.var, left_alias, builder)
        column = f"c{index}"
        try:
            inner = rename_single_output(inner, column)
        except DecorrelationError:
            continue
        applied, _ = ensure_alias(inner, taken, f"ap{index}")
        taken.add(f"ap{index}")
        from ..algebra import OuterApply

        rel = OuterApply(rel, applied)
        rewrites.append((candidate.assign, column))
        merged += 1

    if not rewrites:
        return None
    try:
        sql = render_rel(rel, dialect)
    except SqlGenError:
        return None

    new_query = Call(func="executeQuery", args=[StringLit(sql)])
    if defining_assign is not None:
        defining_assign.value = new_query
    else:
        loop.iterable = new_query
    for assign, column in rewrites:
        getter = "get" + column[0].upper() + column[1:]
        assign.value = MethodCall(receiver=Name(loop.var), method=getter, args=[])
    return Consolidation(
        loop_sid=loop.sid, sql=sql, queries_merged=merged + 1, rel=rel
    )


def _collect_candidates(
    block: Block, cursor: str, builder: DIRBuilder, guards: list[ENode] | None = None
) -> list[_Candidate]:
    """Find ``v = executeScalar(...)`` statements, tracking running
    assignments (so intermediates like ``id = t.getId()`` resolve) and the
    guarding conditions on the path."""
    guards = guards or []
    ve: dict[str, ENode] = {}
    found: list[_Candidate] = []

    def walk(blk: Block, ve: dict[str, ENode], guards: list[ENode]) -> None:
        for stmt in blk.statements:
            if isinstance(stmt, Assign):
                if (
                    isinstance(stmt.value, Call)
                    and stmt.value.func == "executeScalar"
                    and len(stmt.value.args) == 1
                ):
                    node = builder._convert(stmt.value, ve)
                    if isinstance(node, EScalarQuery):
                        found.append(
                            _Candidate(assign=stmt, node=node, guards=list(guards))
                        )
                        continue
                ve[stmt.target] = builder._convert(stmt.value, ve)
            elif isinstance(stmt, If):
                cond = builder._convert(stmt.cond, ve)
                walk(stmt.then_body, dict(ve), guards + [cond])
                if stmt.else_body is not None:
                    negated = builder.dag.op("not", cond)
                    walk(stmt.else_body, dict(ve), guards + [negated])
            # Nested loops and other statements: do not consolidate across
            # them (their own pass handles nested cursor loops).

    walk(block, ve, guards)
    return found


def _is_correlated(node: EScalarQuery, cursor: str) -> bool:
    from ..ir import walk_enodes, EAttr, EBoundVar

    for _, binding in node.params:
        for n in walk_enodes(binding):
            if isinstance(n, EVar) and n.name == cursor:
                return True
            if isinstance(n, EAttr) and isinstance(n.base, (EVar, EBoundVar)):
                if n.base.name == cursor:
                    return True
    return False


def _push_guards(
    rel: RelExpr, guards: list[ENode], cursor: str, left_alias: str, builder
) -> RelExpr:
    """Conjoin path conditions into the applied subquery (Figure 13)."""
    for guard in guards:
        bound = bind_vars(guard, {cursor}, builder.dag)
        try:
            pred = scalarize(bound, cursor)
        except (NotScalarizable, CapableButUnimplemented):
            continue  # guard stays only in the program: still correct
        pred = _qualify_bare(pred, left_alias, rel)
        rel = Select(rel, pred)
    return rel


def _qualify_bare(pred, left_alias: str, inner_rel: RelExpr):
    """Qualify the guard's cursor columns with the outer alias.

    The guard was written over the cursor tuple (outer columns); inside the
    applied subquery those names could collide with inner columns, so they
    are qualified with the outer alias.
    """
    from ..algebra import Col, rename_columns, walk_scalar

    mapping = {}
    for node in walk_scalar(pred):
        if isinstance(node, Col) and node.qualifier is None:
            mapping[node.name] = f"{left_alias}.{node.name}"
    return rename_columns(pred, mapping)
