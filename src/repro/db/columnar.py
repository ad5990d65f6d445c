"""Columnar batch-at-a-time execution: scan→filter→project/aggregate
pipelines, sort/top-N heads, and vectorized hash/semi/anti joins.

Row-at-a-time execution pays a per-row toll the hot paths never need: every
scanned row is copied into a fresh dict of the names read above it, and
every predicate/aggregate argument is re-evaluated by a recursive tree walk
with per-node ``isinstance`` dispatch.  This module executes the same plans
over *column arrays* instead:

* :meth:`Database.columns` caches each base table's ``column → [values]``
  arrays, each transposed on first read (dropped by the same invalidation
  that dirties hash indexes), so repeated queries share one transposition;
* scalar expressions are evaluated **vector-at-a-time** (one tight list
  comprehension per operator node instead of one tree walk per row);
* a selection predicate produces a **selection vector** (the list of
  passing row indices); downstream stages gather only the columns they
  actually reference, restricted to selected rows;
* the pipeline head folds aggregates with per-function loops over the
  gathered arrays, sorts/top-Ns by argsorting key vectors, or
  materializes result rows only at the row↔column boundary — every
  non-columnar Volcano operator upstream is untouched and keeps
  consuming ordinary row dicts;
* :class:`ColumnarHashJoin` and :class:`ColumnarSemiJoin` run the row
  hash-join phase order (build right, probe left in storage order) over
  key *vectors*, emitting joined rows straight from the column arrays.

The golden rule still applies: every columnar operator must produce
*exactly* the reference evaluator's rows, values, and order.  Everything
row-order-sensitive (group first-seen order, emission order, NULL join
keys, ``{**right, **left}`` merge and left-join padding, ``0 + value``
summation) mirrors the row operators verbatim, and the planner only
lowers to a columnar operator when every expression is in the
vectorizable subset (scalar functions in the shared ``_apply_func``
vocabulary and ``CASE WHEN`` included; subqueries, star, and unknown
functions excluded) and every column reference provably resolves inside
the scanned table(s).  One documented
corner remains: expressions are evaluated column-by-column, so when *both*
engines raise a type error the raising row can differ — but whether an
error occurs is identical because the reference evaluates both sides of
every AND/OR too.

There is no small-input switch: a pipeline runs on tables of any size,
empty ones included, and in ``auto`` mode the planner offers it wherever
the shape is supported — on tiny tables it at least matches the row path.
"""

from __future__ import annotations

import operator
from heapq import nsmallest
from itertools import repeat
from typing import Any, Iterator

from ..algebra import (
    Aggregate,
    BinOp,
    CaseWhen,
    Col,
    Func,
    Join,
    Lit,
    Param,
    ScalarExpr,
    Sort,
    UnOp,
    walk_scalar,
)
from .engine import (
    EngineError,
    _apply_func,
    _hashable,
    _like_regex,
    check_aggregate_arguments,
)
from .physical import ExecContext, PhysicalOp, _tuples_equal, scan_layout
from .types import (
    Row,
    descending_key,
    nulls_last_key,
    sql_and,
    sql_compare,
    sql_not,
    sql_or,
)

#: Binary operators the vector evaluator implements (identically to the
#: reference's scalar rules).
_ALLOWED_BINOPS = frozenset(
    {"AND", "OR", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/", "%",
     "||", "LIKE"}
)

_CMP = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
}

#: NULL-propagating binary operators (``||`` included).
_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
    "||": lambda a, b: str(a) + str(b),
}

#: Scalar functions the vector evaluator accepts — exactly the set
#: :func:`repro.db.engine._apply_func` implements, which both engines share,
#: so per-element application can never disagree with the reference.
_VECTOR_FUNCS = frozenset(
    {"ISNULL", "COALESCE", "CONCAT", "GREATEST", "LEAST", "UPPER", "LOWER",
     "LENGTH", "ABS", "SUBSTRING", "TRIM", "ROUND"}
)


# ----------------------------------------------------------------------
# Plan-time support checks


def _vectorizable(expr: ScalarExpr, resolves) -> bool:
    """True when every node of ``expr`` is in the vector evaluator's subset
    and every column reference satisfies ``resolves(col)``."""
    for node in walk_scalar(expr):
        if isinstance(node, Col):
            ok = node.name != "*" and resolves(node)
        elif isinstance(node, BinOp):
            ok = node.op.upper() in _ALLOWED_BINOPS
        elif isinstance(node, UnOp):
            ok = node.op.upper() in ("NOT", "-")
        elif isinstance(node, Func):
            ok = node.name.upper() in _VECTOR_FUNCS
        else:
            # A CASE WHEN's cond and branches are visited by walk_scalar;
            # ExistsExpr, ScalarSubquery and unknown nodes are excluded.
            ok = isinstance(node, (Lit, Param, CaseWhen))
        if not ok:
            return False
    return True


def supported_expr(expr: ScalarExpr, alias: str, columns: set[str]) -> bool:
    """True when ``expr`` is vectorizable over a scan of one table.

    Every column reference must resolve *strictly* against the scan's row
    (bare name, or qualified by the scan alias) — the condition under which
    a merged outer row can never divert the lookup, so batch evaluation
    against the raw columns is exact.
    """
    return _vectorizable(
        expr,
        lambda col: col.name in columns and col.qualifier in (None, alias),
    )


def supported_join_expr(
    expr: ScalarExpr,
    lalias: str,
    lcols: set[str],
    ralias: str,
    rcols: set[str],
) -> bool:
    """True when ``expr`` is vectorizable over a two-table combined row.

    Every column reference must resolve *strictly* against one of the two
    scans exactly as it would on the reference's ``{**right, **left}``
    combined row — qualified by one of the scan aliases, or a bare name
    present in either table (left winning collisions, which
    :func:`residual_layout` mirrors).
    """

    def resolves(col: Col) -> bool:
        if col.qualifier is None:
            return col.name in lcols or col.name in rcols
        return (col.qualifier == lalias and col.name in lcols) or (
            col.qualifier == ralias and col.name in rcols
        )

    return _vectorizable(expr, resolves)


def residual_layout(
    expr: ScalarExpr | None,
    lalias: str,
    lcols: set[str],
    ralias: str,
    rcols: set[str],
) -> dict[str, tuple[str, str]]:
    """Map each namespace key a residual predicate reads to its source
    ``(side, column)``, mirroring the combined-row lookup order: a qualified
    reference binds to the matching alias (left first — the reference's
    ``{**right, **left}`` lets left win same-alias collisions), a bare one
    to the left table when it has the column, else the right."""
    layout: dict[str, tuple[str, str]] = {}
    if expr is None:
        return layout
    for node in walk_scalar(expr):
        if not isinstance(node, Col):
            continue
        if node.qualifier is not None:
            key = f"{node.qualifier}.{node.name}"
            side = "left" if node.qualifier == lalias else "right"
        else:
            key = node.name
            side = "left" if node.name in lcols else "right"
        layout[key] = (side, node.name)
    return layout


def used_columns(exprs) -> set[str]:
    """Column names referenced by any of ``exprs``."""
    used: set[str] = set()
    for expr in exprs:
        used.update(
            node.name for node in walk_scalar(expr) if isinstance(node, Col)
        )
    return used


# ----------------------------------------------------------------------
# Vector evaluation
#
# A vectorized result is a tag pair: ``("c", value)`` for a broadcast
# constant, ``("v", [values...])`` for a per-row vector.  Constants stay
# scalar through as many operators as possible so ``col > :p`` compiles to
# a single comprehension against the raw column array.


def _veval(expr: ScalarExpr, cols: dict, params: dict) -> tuple[str, Any]:
    if isinstance(expr, Lit):
        return "c", expr.value
    if isinstance(expr, Col):
        if expr.qualifier is not None:
            # Join namespaces carry alias-qualified keys; single-table
            # namespaces hold bare names only (the support check pinned the
            # qualifier to the scan alias, so falling through is exact).
            hit = cols.get(f"{expr.qualifier}.{expr.name}")
            if hit is not None:
                return "v", hit
        return "v", cols[expr.name]
    if isinstance(expr, Param):
        if expr.name not in params:
            raise EngineError(f"unbound parameter :{expr.name}")
        return "c", params[expr.name]
    if isinstance(expr, BinOp):
        return _veval_binop(expr, cols, params)
    if isinstance(expr, UnOp):
        op = expr.op.upper()
        kind, data = _veval(expr.operand, cols, params)
        if op == "NOT":
            if kind == "c":
                return "c", sql_not(data)
            return "v", [sql_not(v) for v in data]
        if op == "-":
            if kind == "c":
                return "c", None if data is None else -data
            return "v", [None if v is None else -v for v in data]
        raise EngineError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, Func):
        parts = [_veval(a, cols, params) for a in expr.args]
        name = expr.name
        if all(kind == "c" for kind, _ in parts):
            return "c", _apply_func(name, [value for _, value in parts])
        n = max(len(data) for kind, data in parts if kind == "v")
        vecs = [_broadcast(kind, data, n) for kind, data in parts]
        return "v", [
            _apply_func(name, [vec[i] for vec in vecs]) for i in range(n)
        ]
    if isinstance(expr, CaseWhen):
        return _veval_case(expr, cols, params)
    raise EngineError(f"cannot vectorize {type(expr).__name__}")


def _veval_case(expr: CaseWhen, cols: dict, params: dict) -> tuple[str, Any]:
    """CASE WHEN with reference-identical branch evaluation: each branch is
    evaluated only on the partition of rows that takes it (the reference
    never evaluates the untaken branch), by gathering the branch's columns
    through the partition's index list."""
    kind, cond = _veval(expr.cond, cols, params)
    if kind == "c":
        branch = expr.if_true if cond is True else expr.if_false
        return _veval(branch, cols, params)
    n = len(cond)
    true_idx = [i for i, v in enumerate(cond) if v is True]
    if len(true_idx) == n:
        return _veval(expr.if_true, cols, params)
    if not true_idx:
        return _veval(expr.if_false, cols, params)
    taken = set(true_idx)
    false_idx = [i for i in range(n) if i not in taken]
    out: list = [None] * n
    for branch, idx in ((expr.if_true, true_idx), (expr.if_false, false_idx)):
        sub = _gather_cols(branch, cols, idx)
        kind, data = _veval(branch, sub, params)
        if kind == "c":
            for i in idx:
                out[i] = data
        else:
            for i, value in zip(idx, data):
                out[i] = value
    return "v", out


def _gather_cols(expr: ScalarExpr, cols: dict, idx: list[int]) -> dict:
    """Restrict a column namespace to the rows in ``idx``, keeping every
    (bare or qualified) key the expression's column references resolve to."""
    sub: dict = {}
    for node in walk_scalar(expr):
        if not isinstance(node, Col):
            continue
        keys = [node.name]
        if node.qualifier is not None:
            keys.insert(0, f"{node.qualifier}.{node.name}")
        for key in keys:
            if key in sub:
                break
            try:
                column = cols[key]
            except KeyError:
                continue
            sub[key] = [column[i] for i in idx]
            break
    return sub


def _veval_binop(expr: BinOp, cols: dict, params: dict) -> tuple[str, Any]:
    op = expr.op.upper()
    lk, lv = _veval(expr.left, cols, params)
    rk, rv = _veval(expr.right, cols, params)

    if op in ("AND", "OR"):
        fn = sql_and if op == "AND" else sql_or
        if lk == "c" and rk == "c":
            return "c", fn(lv, rv)
        if lk == "c":
            return "v", [fn(lv, b) for b in rv]
        if rk == "c":
            return "v", [fn(a, rv) for a in lv]
        return "v", [fn(a, b) for a, b in zip(lv, rv)]

    fn = _CMP.get(op)
    if fn is None:
        fn = _ARITH.get(op)
    if fn is not None:
        if lk == "c" and rk == "c":
            if op in _CMP:
                return "c", sql_compare(op, lv, rv)
            return "c", None if lv is None or rv is None else fn(lv, rv)
        if lk == "c":
            if lv is None:
                return "c", None
            a = lv
            return "v", [None if b is None else fn(a, b) for b in rv]
        if rk == "c":
            if rv is None:
                return "c", None
            b = rv
            return "v", [None if a is None else fn(a, b) for a in lv]
        return "v", [
            None if a is None or b is None else fn(a, b) for a, b in zip(lv, rv)
        ]

    if op == "LIKE":
        if rk == "c":
            if rv is None:
                return "c", None
            regex = _like_regex(str(rv))
            match = regex.fullmatch
            if lk == "c":
                return "c", None if lv is None else match(str(lv)) is not None
            return "v", [
                None if a is None else match(str(a)) is not None for a in lv
            ]
        if lk == "c":
            if lv is None:
                return "c", None
            a = str(lv)
            return "v", [
                None
                if b is None
                else _like_regex(str(b)).fullmatch(a) is not None
                for b in rv
            ]
        return "v", [
            None
            if a is None or b is None
            else _like_regex(str(b)).fullmatch(str(a)) is not None
            for a, b in zip(lv, rv)
        ]

    raise EngineError(f"unknown binary operator {expr.op!r}")


def _broadcast(kind: str, data, n: int) -> list:
    return data if kind == "v" else [data] * n


def _gather(cols, names, sel: list[int]) -> dict:
    """The columns ``names`` of a namespace, restricted to the rows in
    ``sel`` — asked for by name, so a lazily built namespace builds only
    those."""
    return {name: list(map(cols[name].__getitem__, sel)) for name in names}


def _keyed_side(cols, n: int, pred, key_columns, keys, params: dict):
    """One join side: the ids of its rows ``pred`` selects (of ``n``) and
    each key expression's vector over them, gathered from ``key_columns``."""
    sel = _selection(pred, cols, params)
    if sel is None:
        return range(n), [_broadcast(*_veval(e, cols, params), n) for e in keys]
    ns = _gather(cols, key_columns, sel)
    return sel, [_broadcast(*_veval(e, ns, params), len(sel)) for e in keys]


def _selection(pred, cols: dict, params: dict) -> list[int] | None:
    """Evaluate a selection predicate over full-length columns; returns the
    selection vector, or ``None`` meaning every row is selected."""
    if pred is None:
        return None
    kind, data = _veval(pred, cols, params)
    if kind == "c":
        return None if data is True else []
    return [i for i, v in enumerate(data) if v is True]


# ----------------------------------------------------------------------
# Grouping and folds


def _dense_ids(keys) -> tuple[list[int], list]:
    gid: dict = {}
    gids: list[int] = []
    for key in keys:
        g = gid.get(key, -1)
        if g < 0:
            g = gid[key] = len(gid)
        gids.append(g)
    return gids, list(gid)


def _group_ids(vecs: list[list]) -> tuple[list[int], list]:
    """Assign a dense group id per row of the group-key vectors; returns
    (ids, first-seen keys), a key being a value for one vector and a tuple
    for several."""
    keys = vecs[0] if len(vecs) == 1 else list(zip(*vecs))
    try:
        return _dense_ids(keys)
    except TypeError:  # unhashable group value: key on _hashable instead
        if len(vecs) == 1:
            return _dense_ids(map(_hashable, keys))
        return _dense_ids(tuple(map(_hashable, key)) for key in keys)


def _fold(func: str, gids: list[int], ngroups: int, vec: list) -> list:
    """Fold one aggregate over grouped values.  Mirrors ``_AggState``:
    NULLs are skipped, SUM starts from ``0 + value`` (so non-summable types
    raise the reference's TypeError), AVG divides with true division."""
    if func == "count":
        counts = [0] * ngroups
        for g, v in zip(gids, vec):
            if v is not None:
                counts[g] += 1
        return counts
    if func == "sum":
        totals: list = [None] * ngroups
        for g, v in zip(gids, vec):
            if v is not None:
                t = totals[g]
                totals[g] = 0 + v if t is None else t + v
        return totals
    if func == "min":
        best: list = [None] * ngroups
        for g, v in zip(gids, vec):
            if v is not None:
                b = best[g]
                if b is None or v < b:
                    best[g] = v
        return best
    if func == "max":
        best = [None] * ngroups
        for g, v in zip(gids, vec):
            if v is not None:
                b = best[g]
                if b is None or v > b:
                    best[g] = v
        return best
    if func == "avg":
        totals = [None] * ngroups
        counts = [0] * ngroups
        for g, v in zip(gids, vec):
            if v is not None:
                counts[g] += 1
                t = totals[g]
                totals[g] = 0 + v if t is None else t + v
        return [
            None if c == 0 else t / c for t, c in zip(totals, counts)
        ]
    raise EngineError(f"unknown aggregate {func!r}")  # pragma: no cover


def _first_occurrences(outputs: dict[str, list], pairs):
    """The δ stage: the ``(index, source row)`` pairs whose output values
    were not seen before, in scan order.  The fingerprint is
    ``DistinctOp``'s — the sorted output names without a ".", values
    through ``_hashable`` — but every row has one layout, so it needs only
    the values.  Lazy, so a LIMIT above stops it early."""
    keys = [outputs[name] for name in sorted(outputs) if "." not in name]
    if len(keys) == 1:
        fingerprints = map(_hashable, keys[0])
    elif keys:
        fingerprints = zip(*[map(_hashable, vec) for vec in keys])
    else:
        fingerprints = repeat(())
    seen = set()
    for fingerprint, pair in zip(fingerprints, pairs):
        if fingerprint not in seen:
            seen.add(fingerprint)
            yield pair


# ----------------------------------------------------------------------
# The pipeline operator


class ColumnarPipeline(PhysicalOp):
    """Columnar execution of ``[γ|π|τ|topn|·] ∘ [σ|·] ∘ scan(T)``.

    ``head`` is ``("aggregate", Aggregate)``, ``("project", Project)``,
    ``("sort", Sort)``, ``("topn", (Sort, count))``, or ``("filter", None)``
    (emit the filtered scan rows themselves); ``head_exprs`` are the
    expressions the head evaluates.  The sort heads order a row
    *index* permutation by vectorized key columns (a bounded ``nsmallest``
    heap for top-N) and materialize only the emitted rows.  A project head
    may end in a δ stage (``distinct``, set by the planner when it folds a
    ``Distinct`` into the pipeline): duplicates are dropped on the output
    vectors, so only the kept rows are built.  The row↔column boundary
    sits at this operator's output: whatever consumes it (a hash join's
    build side, a sort, the client) sees ordinary row dicts holding the
    names in ``keep`` — the ones the planner found read above — exactly as
    the row-at-a-time plan's.
    """

    label = "Columnar"

    def __init__(
        self,
        name: str,
        alias: str | None,
        table_columns: tuple[str, ...],
        pred: ScalarExpr | None,
        head: tuple[str, Any],
        head_exprs,
        keep: frozenset[str],
    ):
        self.name = name
        self.alias = alias or name
        self.table_columns = tuple(table_columns)
        self.pred = pred
        self.head_kind, self.head_node = head
        #: δ stage after a project head (see the class docstring).
        self.distinct = False
        #: Columns the post-selection stages read (gathered via the
        #: selection vector; everything else is never touched).
        self.head_columns = used_columns(head_exprs)
        self.keep = keep
        #: What a filter or sort head emits of each scanned row.
        self.layout = scan_layout(self.alias, self.table_columns, keep)

    def _sort_node(self) -> Sort:
        return self.head_node[0] if self.head_kind == "topn" else self.head_node

    def children(self) -> tuple[PhysicalOp, ...]:
        return ()

    def detail(self) -> str:
        stages = [f"scan {self.name}"]
        if self.alias != self.name:
            stages[0] += f" AS {self.alias}"
        if self.pred is not None:
            stages.append(f"σ[{self.pred}]")
        if self.head_kind == "aggregate":
            node = self.head_node
            groups = ", ".join(str(g) for g in node.group_by)
            calls = ", ".join(str(a) for a in node.aggs)
            stages.append(f"γ[{groups}; {calls}]")
        elif self.head_kind == "project":
            stages.append(
                "π[" + ", ".join(str(i) for i in self.head_node.items) + "]"
            )
            if self.distinct:
                stages.append("δ")
        elif self.head_kind in ("sort", "topn"):
            keys = ", ".join(str(k) for k in self._sort_node().keys)
            if self.head_kind == "topn":
                stages.append(f"top {self.head_node[1]} by [{keys}]")
            else:
                stages.append(f"τ[{keys}]")
        return " → ".join(stages)

    def scanned_rows(self, ctx: ExecContext) -> int:
        return ctx.probed.get(id(self), 0)

    # ------------------------------------------------------------------

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        if self.head_kind == "aggregate":
            check_aggregate_arguments(self.head_node)
        db = ctx.db
        rows = db.rows(self.name)
        n = len(rows)
        cols = db.columns(self.name)
        ctx.probed[id(self)] = ctx.probed.get(id(self), 0) + n
        params = ctx.params
        sel = _selection(self.pred, cols, params)  # None = every row selected
        if self.head_kind == "filter":
            yield from self._emit_scan_rows(rows, sel)
            return

        # Gather only the columns the head reads, restricted to selected
        # rows — this is also what keeps error behavior aligned with the
        # reference, which never evaluates head expressions on filtered-out
        # rows.
        if sel is None:
            head_cols, m = cols, n
        else:
            head_cols = _gather(cols, self.head_columns, sel)
            m = len(sel)

        if self.head_kind in ("sort", "topn"):
            yield from self._order(rows, head_cols, sel, m, params)
        elif self.head_kind == "aggregate":
            yield from self._aggregate(head_cols, m, params)
        else:
            yield from self._project(head_cols, cols, sel, m, params)

    # ------------------------------------------------------------------

    def _emit_scan_rows(self, rows: list[Row], sel: list[int] | None):
        """Row boundary for filter and sort heads: each selected scan row
        with the names of :attr:`layout`."""
        layout = self.layout
        indices = range(len(rows)) if sel is None else sel
        for i in indices:
            row = rows[i]
            yield {out: row[src] for out, src in layout}

    def _order(self, rows, key_cols, sel, m: int, params):
        """Sort (or heap top-N) an index permutation by vectorized keys,
        then emit the scan rows in that order.

        Composite keys wrap each component exactly like the row path's
        ``_sort_key`` (``nulls_last_key`` ascending, ``descending_key``
        descending) and always compare as tuples, so tie-breaking, NULL
        placement, and comparison errors match ``SortOp``/``TopN``.  Both
        sorts are stable over the selection order, which is the scan order —
        the same input order the row operators sort.
        """
        if self.head_kind == "topn":
            node, count = self.head_node
        else:
            node, count = self.head_node, None
        key_vecs = []
        for key in node.keys:
            vec = _broadcast(*_veval(key.expr, key_cols, params), m)
            transform = nulls_last_key if key.ascending else descending_key
            key_vecs.append([transform(v) for v in vec])
        keys = list(zip(*key_vecs))
        if count is None or count <= 0:
            order = sorted(range(m), key=keys.__getitem__)
            if count is not None:
                order = order[:count]  # reference slice semantics for <= 0
        else:
            order = nsmallest(count, range(m), key=keys.__getitem__)
        if sel is not None:
            order = [sel[j] for j in order]
        yield from self._emit_scan_rows(rows, order)

    def _project(self, head_cols, cols, sel, m: int, params):
        # One vector per output name; a repeated name keeps its first
        # position and its last value, as the reference's row dict does.
        outputs: dict[str, list] = {}
        for item in self.head_node.items:
            kind, data = _veval(item.expr, head_cols, params)
            outputs[item.output_name] = _broadcast(kind, data, m)
        # The alias-qualified source columns asked for pass through unless
        # an output name shadows them — mirrors the reference's
        # _project_row setdefault loop, decided once instead of per row.
        keep = self.keep
        qualified = [
            (qname, cols[src])
            for qname, src in self.layout
            if "." in qname and qname not in outputs
        ]
        pairs = enumerate(range(m) if sel is None else sel)
        if self.distinct:
            pairs = _first_occurrences(outputs, pairs)
        vectors = [(name, vec) for name, vec in outputs.items() if name in keep]
        for j, src in pairs:
            result: Row = {}
            for name, vec in vectors:
                result[name] = vec[j]
            for qname, column in qualified:
                result[qname] = column[src]
            yield result

    def _aggregate(self, head_cols, m: int, params):
        node: Aggregate = self.head_node

        if not node.group_by:
            result: Row = {}
            zeros = [0] * m
            for item in node.aggs:
                call = item.call
                if call.arg is None:  # COUNT(*)
                    result[item.output_name] = m
                    continue
                kind, data = _veval(call.arg, head_cols, params)
                vec = _broadcast(kind, data, m)
                result[item.output_name] = _fold(call.func, zeros, 1, vec)[0]
            yield result
            return

        group_vecs = [
            _broadcast(*_veval(g, head_cols, params), m) for g in node.group_by
        ]
        gids, keys = _group_ids(group_vecs)
        single = len(group_vecs) == 1
        ngroups = len(keys)

        folded = []
        for item in node.aggs:
            call = item.call
            if call.arg is None:
                counts = [0] * ngroups
                for g in gids:
                    counts[g] += 1
                folded.append(counts)
                continue
            kind, data = _veval(call.arg, head_cols, params)
            folded.append(_fold(call.func, gids, ngroups, _broadcast(kind, data, m)))

        names = [
            g.name if isinstance(g, Col) else str(g) for g in node.group_by
        ]
        items = [item.output_name for item in node.aggs]
        for gi in range(ngroups):
            row: Row = {}
            if single:
                row[names[0]] = keys[gi]
            else:
                for name, value in zip(names, keys[gi]):
                    row[name] = value
            for name, values in zip(items, folded):
                row[name] = values[gi]
            yield row


# ----------------------------------------------------------------------
# Vectorized joins
#
# Both operators below keep the whole build/probe cycle on column arrays:
# each side's predicate produces a selection vector, key expressions are
# evaluated as vectors over the gathered key columns only, and output rows
# are materialized straight from the raw column arrays at emission time —
# no intermediate scan dicts exist for rows that never reach the output.
# The golden rule is unchanged: emission order (left-major, build-insertion
# bucket order), NULL-key semantics (NULL build keys excluded, NULL probe
# keys never match), left-join padding, and unhashable-key degradation all
# mirror the row operators exactly.


class ColumnarHashJoin(PhysicalOp):
    """Vectorized hash equi-join over two base-table scans.

    ``left_side``/``right_side`` are ``(table, alias, columns, pred)``
    scan descriptions; ``left_keys``/``right_keys`` the planner's parallel
    equality-conjunct sides, each vectorizable over its own scan;
    ``residual`` the remaining conjuncts, evaluated in one vector pass over
    the candidate-pair namespace described by ``layout`` (see
    :func:`residual_layout`).  ``fallback`` is the row :class:`HashJoin`,
    taken on unhashable build keys (where the row path's nested-loop
    degrade is the only strategy that preserves equality semantics).
    """

    label = "ColumnarHashJoin"

    def __init__(
        self,
        node: Join,
        left_side,
        right_side,
        left_keys,
        right_keys,
        residual,
        layout,
        fallback: PhysicalOp,
        keep: frozenset[str],
    ):
        self.node = node
        self.left_name, self.left_alias, left_columns, self.left_pred = left_side
        (
            self.right_name,
            self.right_alias,
            right_columns,
            self.right_pred,
        ) = right_side
        self.left_columns = tuple(left_columns)
        self.right_columns = tuple(right_columns)
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.layout = dict(layout)
        self.fallback = fallback
        #: Each side's emitted names (see :func:`scan_layout`), cut to
        #: ``keep``: a name on both sides takes the right side's position
        #: and the left side's value, as in ``{**right, **left}``.
        self.left_layout = scan_layout(self.left_alias, self.left_columns, keep)
        self.right_layout = scan_layout(self.right_alias, self.right_columns, keep)
        self.left_key_columns = used_columns(self.left_keys)
        self.right_key_columns = used_columns(self.right_keys)

    def children(self) -> tuple[PhysicalOp, ...]:
        return ()

    def detail(self) -> str:
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        text = (
            f"{self.node.kind} {self.left_name} ⋈ {self.right_name} on {keys}"
        )
        if self.residual is not None:
            text += f" residual {self.residual}"
        return text

    def scanned_rows(self, ctx: ExecContext) -> int:
        return ctx.probed.get(id(self), 0)

    # ------------------------------------------------------------------

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        db = ctx.db
        left_rows = db.rows(self.left_name)
        right_rows = db.rows(self.right_name)
        nl, nr = len(left_rows), len(right_rows)
        params = ctx.params
        left_cols = db.columns(self.left_name)
        right_cols = db.columns(self.right_name)

        # Build (right) side first — the same phase order as the row hash
        # join, which materializes its right child before streaming left.
        ridx, rkey_vecs = _keyed_side(
            right_cols, nr, self.right_pred, self.right_key_columns, self.right_keys, params
        )
        # One key per row: a value for one key expression, a tuple for
        # several (NULL anywhere in it never matches).
        single = len(rkey_vecs) == 1
        rkeys = rkey_vecs[0] if single else list(zip(*rkey_vecs))

        def null(key) -> bool:
            return key is None if single else any(v is None for v in key)

        table: dict = {}
        try:
            for key, orig in zip(rkeys, ridx):
                if not null(key):
                    table.setdefault(key, []).append(orig)
        except TypeError:
            # Unhashable join key: degrade exactly like the row hash join.
            yield from self.fallback.execute(ctx, outer)
            return
        ctx.probed[id(self)] = ctx.probed.get(id(self), 0) + nl + nr

        # Probe (left) side.
        lidx, lkey_vecs = _keyed_side(
            left_cols, nl, self.left_pred, self.left_key_columns, self.left_keys, params
        )
        lkeys = lkey_vecs[0] if single else list(zip(*lkey_vecs))

        def bucket_for(j: int):
            key = lkeys[j]
            if null(key):
                return ()
            try:
                return table.get(key, ())
            except TypeError:
                wrap = (lambda k: (k,)) if single else tuple
                return [
                    orig
                    for rkey, orig in zip(rkeys, ridx)
                    if _tuples_equal(wrap(key), wrap(rkey))
                ]

        if self.residual is None:
            matches = ((li, bucket_for(j)) for j, li in enumerate(lidx))
        else:
            # Residual conjuncts: collect every candidate pair left-major
            # (the emission order), then evaluate the residual once as a
            # vector over the pair namespace instead of once per pair.
            pair_left: list[int] = []
            pair_right: list[int] = []
            spans: list[tuple[int, int, int]] = []
            for j, li in enumerate(lidx):
                start = len(pair_right)
                for ri in bucket_for(j):
                    pair_left.append(li)
                    pair_right.append(ri)
                spans.append((li, start, len(pair_right)))
            ns = {
                key: [
                    (left_cols if side == "left" else right_cols)[column][i]
                    for i in (pair_left if side == "left" else pair_right)
                ]
                for key, (side, column) in self.layout.items()
            }
            keep = _broadcast(*_veval(self.residual, ns, params), len(pair_right))
            matches = (
                (li, [pair_right[p] for p in range(start, end) if keep[p] is True])
                for li, start, end in spans
            )

        left_emit = [(out, left_cols[src]) for out, src in self.left_layout]
        right_emit = [(out, right_cols[src]) for out, src in self.right_layout]
        pad_names = [out for out, _ in self.right_layout]
        left_kind = self.node.kind == "left"
        for li, rights in matches:
            for ri in rights:
                row = {name: column[ri] for name, column in right_emit}
                for name, column in left_emit:
                    row[name] = column[li]
                yield row
            if left_kind and not rights:
                row = {name: column[li] for name, column in left_emit}
                for name in pad_names:
                    row.setdefault(name, None)
                yield row


class ColumnarSemiJoin(PhysicalOp):
    """Vectorized hash semi/anti-join (decorrelated EXISTS) over scans.

    The build side's key tuples form a hash set assembled from key vectors;
    the probe side emits its (filtered) scan rows on membership — or
    non-membership when ``negated``.  Only built by the planner when the
    correlation produced at least one key pair: the keyless (uncorrelated)
    case stays on the row operator, whose single emptiness probe stops the
    build after one row — a short-circuit a vectorized build would lose.
    NULL build keys are excluded, NULL probe keys never match, and
    unhashable keys delegate to the row semi-join, all exactly as
    :class:`~repro.db.physical.HashSemiJoin` behaves.
    """

    label = "ColumnarSemiJoin"

    def __init__(
        self,
        child_side,
        build_side,
        outer_keys,
        inner_keys,
        negated: bool,
        fallback: PhysicalOp,
        keep: frozenset[str],
    ):
        (
            self.child_name,
            self.child_alias,
            child_columns,
            self.child_pred,
        ) = child_side
        (
            self.build_name,
            self.build_alias,
            build_columns,
            self.build_pred,
        ) = build_side
        self.child_columns = tuple(child_columns)
        self.build_columns = tuple(build_columns)
        self.outer_keys = tuple(outer_keys)
        self.inner_keys = tuple(inner_keys)
        self.negated = negated
        self.fallback = fallback
        #: What the join emits of each kept child row (see :func:`scan_layout`).
        self.layout = scan_layout(self.child_alias, self.child_columns, keep)
        self.outer_key_columns = used_columns(self.outer_keys)
        self.inner_key_columns = used_columns(self.inner_keys)
        if negated:
            self.label = "ColumnarAntiJoin"

    def children(self) -> tuple[PhysicalOp, ...]:
        return ()

    def detail(self) -> str:
        keys = ", ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"{self.child_name} ⋉ {self.build_name} on {keys}"

    def scanned_rows(self, ctx: ExecContext) -> int:
        return ctx.probed.get(id(self), 0)

    # ------------------------------------------------------------------

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        db = ctx.db
        child_rows = db.rows(self.child_name)
        build_rows = db.rows(self.build_name)
        nc, nb = len(child_rows), len(build_rows)
        params = ctx.params
        build_cols = db.columns(self.build_name)

        _, bkey_vecs = _keyed_side(
            build_cols, nb, self.build_pred, self.inner_key_columns, self.inner_keys, params
        )
        keys: set = set()
        try:
            for key in zip(*bkey_vecs):
                if not any(v is None for v in key):
                    keys.add(key)
        except TypeError:
            yield from self.fallback.execute(ctx, outer)
            return
        ctx.probed[id(self)] = ctx.probed.get(id(self), 0) + nc + nb

        cidx, ckey_vecs = _keyed_side(
            db.columns(self.child_name), nc, self.child_pred, self.outer_key_columns,
            self.outer_keys, params,
        )
        negated = self.negated
        layout = self.layout
        for key, ci in zip(zip(*ckey_vecs), cidx):
            if any(v is None for v in key):
                hit = False
            else:
                try:
                    hit = key in keys
                except TypeError:
                    hit = any(_tuples_equal(key, k) for k in keys)
            if (not hit) if negated else hit:
                row = child_rows[ci]
                yield {out: row[src] for out, src in layout}
