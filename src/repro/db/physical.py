"""Physical operators for the planned execution engine.

The planner (:mod:`repro.db.planner`) lowers relational algebra trees into
trees of :class:`PhysicalOp` objects.  Operators are immutable and
stateless: one plan object is cached per algebra tree per
:class:`~repro.db.engine.Database` and re-executed with fresh
:class:`ExecContext` state (parameters, per-operator row counters), so a
cached plan can also serve correlated subqueries with different outer rows.

Execution is generator-based: every operator's ``execute`` yields rows, so
a ``LIMIT`` at the top of a pipeline stops pulling from its producer after
``n`` rows instead of materializing the whole input.  Blocking operators
(hash build sides, sorts, aggregation) materialize only what they must.

The golden rule of this module: every operator must produce *exactly* the
rows, values, and row order of :class:`~repro.db.engine.ReferenceEvaluator`
on every input, including NULL semantics and error behavior.  Anything the
planner cannot prove safe falls back to an operator that mirrors the
reference implementation line for line.
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import islice
from typing import Any, Iterator

from ..algebra import AggCall, Aggregate, Col, Join, OuterApply, Project, RelExpr, Sort
from .engine import (
    Database,
    ReferenceEvaluator,
    _hashable,
    _FingerprintColumns,
    _output_names_best_effort,
    _pad_left_row,
    check_aggregate_arguments,
)
from .types import Row, is_truthy, sql_compare

#: Operator labels whose ``rows_scanned`` explain field reports base-table
#: rows actually read (wired into the connection's transfer accounting).
SCAN_LABELS = frozenset(
    {"SeqScan", "IndexLookup", "IndexNLJoin", "Columnar", "ColumnarHashJoin",
     "ColumnarSemiJoin", "ColumnarAntiJoin"}
)


class PlannedScalarEvaluator(ReferenceEvaluator):
    """Scalar evaluator whose relational subqueries run on planned plans.

    Inherits every scalar rule from the reference evaluator (so the two
    engines share one implementation of NULL semantics, functions, and
    column lookup) but routes ``EXISTS``/scalar-subquery evaluation through
    the plan cache instead of re-walking the algebra tree.
    """

    def __init__(self, ctx: "ExecContext"):
        super().__init__(ctx.db, ctx.params)
        self._ctx = ctx

    def eval_rel(self, node: RelExpr, outer: Row | None = None) -> list[Row]:
        plan = self._ctx.db.plan(node, self._ctx.params)
        return list(plan.execute(self._ctx, outer))


class ExecContext:
    """Per-execution state: database, parameters, and row counters."""

    __slots__ = ("db", "params", "rows_out", "probed", "scalar")

    def __init__(self, db: Database, params: dict[str, Any]):
        self.db = db
        self.params = params
        #: id(op) → rows the operator produced in this execution.
        self.rows_out: dict[int, int] = {}
        #: id(op) → base-table rows an index join touched.
        self.probed: dict[int, int] = {}
        self.scalar = PlannedScalarEvaluator(self)

    def merge(self, row: Row, outer: Row | None) -> Row:
        if not outer:
            return row
        merged = dict(outer)
        merged.update(row)
        return merged


class PhysicalOp:
    """One node of a physical plan."""

    label = "op"
    #: Names this operator's rows are cut to, set by the planner when the
    #: operator may produce keys nobody above it reads (``None``: as built).
    trim: frozenset[str] | None = None

    def children(self) -> tuple["PhysicalOp", ...]:
        return ()

    def detail(self) -> str:
        return ""

    def execute(self, ctx: ExecContext, outer: Row | None = None) -> Iterator[Row]:
        """Yield result rows, tracking the operator's output cardinality."""
        produced = 0
        iterator = self._rows(ctx, outer)
        trim = self.trim
        if trim is not None:
            iterator = ({k: v for k, v in row.items() if k in trim} for row in iterator)
        try:
            for row in iterator:
                produced += 1
                yield row
        finally:
            key = id(self)
            ctx.rows_out[key] = ctx.rows_out.get(key, 0) + produced

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        raise NotImplementedError

    def scanned_rows(self, ctx: ExecContext) -> int:
        """Base-table rows this operator read (0 for non-scan operators)."""
        return 0


def explain_plan(op: PhysicalOp, ctx: ExecContext | None = None) -> dict:
    """Render a physical plan (optionally with actual row counts) as a
    nested dict: ``{"op", "detail", "rows_out", "rows_scanned", "children"}``.

    ``rows_out`` is the operator's output cardinality from the execution
    ``ctx`` (``None`` when the plan has not run); ``rows_scanned`` is the
    number of base-table rows the operator itself touched — the quantity the
    simulated server-side cost accounting charges for.
    """
    return {
        "op": op.label,
        "detail": op.detail(),
        "rows_out": None if ctx is None else ctx.rows_out.get(id(op), 0),
        "rows_scanned": 0 if ctx is None else op.scanned_rows(ctx),
        "children": [explain_plan(child, ctx) for child in op.children()],
    }


def total_scanned(explain: dict) -> int:
    """Sum the ``rows_scanned`` fields of an executed explain tree."""
    return explain["rows_scanned"] + sum(
        total_scanned(child) for child in explain["children"]
    )


# ----------------------------------------------------------------------
# Scans


def scan_layout(alias: str, columns, keep=None) -> tuple[tuple[str, str], ...]:
    """The ``(output key, stored column)`` pairs a scan of a table with
    ``columns`` emits: each column under its bare and its alias-qualified
    name, in that order, cut to the names in ``keep`` (all without one)."""
    pairs = [(c, c) for c in columns] + [(f"{alias}.{c}", c) for c in columns]
    return tuple(pair for pair in pairs if keep is None or pair[0] in keep)


class SeqScan(PhysicalOp):
    """Full scan of a base table.  Each row holds the names in ``layout``
    (see :func:`scan_layout`): the planner's cut of the bare and
    alias-qualified columns to the ones some operator above reads or the
    client receives."""

    label = "SeqScan"

    def __init__(self, name: str, alias: str | None, layout):
        self.name = name
        self.alias = alias or name
        self.layout = layout

    def detail(self) -> str:
        if self.alias != self.name:
            return f"{self.name} AS {self.alias}"
        return self.name

    def scanned_rows(self, ctx: ExecContext) -> int:
        return ctx.rows_out.get(id(self), 0)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        rows = ctx.db.rows(self.name)  # an unknown table (no layout) raises
        layout = self.layout
        for row in rows:
            yield {out: row[src] for out, src in layout}


class IndexLookup(PhysicalOp):
    """Point lookup ``σ[col = expr](T)`` through a lazily built hash index.

    ``key_expr`` contains no columns of ``T`` (literals, parameters, or
    outer-correlated columns only), so it is evaluated once per execution
    against the outer scope.  A remaining ``residual`` predicate (the other
    conjuncts of the original selection) filters the bucket.  When the index
    cannot be built (unhashable values) or the probe key is unhashable, the
    operator delegates to ``fallback`` — a plain filtered scan with the full
    original predicate.  Rows hold the names in ``layout``, as
    :class:`SeqScan`'s do.
    """

    label = "IndexLookup"

    def __init__(self, name, column, key_expr, residual, fallback, layout):
        self.name = name
        self.column = column
        self.key_expr = key_expr
        self.residual = residual
        self.fallback = fallback
        self.layout = layout

    def detail(self) -> str:
        return f"{self.name}.{self.column} = {self.key_expr}"

    def scanned_rows(self, ctx: ExecContext) -> int:
        return ctx.rows_out.get(id(self), 0)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        index = ctx.db.index_on(self.name, self.column, auto=True)
        if index is None:
            yield from self.fallback.execute(ctx, outer)
            return
        key = ctx.scalar.eval_scalar(self.key_expr, outer or {})
        if key is None:
            return  # col = NULL is unknown: no rows qualify
        try:
            bucket = index.get(key, ())
        except TypeError:  # unhashable probe value
            yield from self.fallback.execute(ctx, outer)
            return
        layout = self.layout
        scalar = ctx.scalar
        residual = self.residual
        for row in bucket:
            copy = {out: row[src] for out, src in layout}
            if residual is not None and not is_truthy(
                scalar.eval_scalar(residual, ctx.merge(copy, outer))
            ):
                continue
            yield copy


# ----------------------------------------------------------------------
# Row-at-a-time operators


class FilterOp(PhysicalOp):
    """σ — streaming selection."""

    label = "Filter"

    def __init__(self, child: PhysicalOp, pred):
        self.child = child
        self.pred = pred

    def children(self):
        return (self.child,)

    def detail(self) -> str:
        return str(self.pred)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        scalar = ctx.scalar
        pred = self.pred
        for row in self.child.execute(ctx, outer):
            if is_truthy(scalar.eval_scalar(pred, ctx.merge(row, outer))):
                yield row


class ProjectOp(PhysicalOp):
    """π — streaming projection.

    Each row holds the items' outputs plus the alias-qualified names of
    ``passed`` its input row carries (the reference passes every one
    through; the planner names those read above).  Without ``passed`` (a
    star projection) rows come from the reference row builder."""

    label = "Project"

    def __init__(self, child: PhysicalOp, node: Project, passed):
        self.child = child
        self.node = node
        self.passed = passed
        self.items = [(item.output_name, item.expr) for item in node.items]

    def children(self):
        return (self.child,)

    def detail(self) -> str:
        return ", ".join(str(item) for item in self.node.items)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        scalar = ctx.scalar
        node = self.node
        rows = self.child.execute(ctx, outer)
        passed = self.passed
        if passed is None:
            for row in rows:
                yield scalar._project_row(node, row, outer)
            return
        items = self.items
        evaluate = scalar.eval_scalar
        merge = ctx.merge
        for row in rows:
            scope = merge(row, outer)
            result = {name: evaluate(expr, scope) for name, expr in items}
            if passed:
                for key, value in row.items():
                    if key in passed:
                        result.setdefault(key, value)
            yield result


class AliasOp(PhysicalOp):
    """Derived-table alias: copies each row, adding ``requalified[c]`` (the
    alias-qualified name of a plain column ``c``) for the columns asked for
    under it, and drops the names outside ``keep`` when that is set."""

    label = "Alias"

    def __init__(self, child: PhysicalOp, name: str, requalified: dict, keep):
        self.child = child
        self.name = name
        self.requalified = requalified
        self.keep = keep

    def children(self):
        return (self.child,)

    def detail(self) -> str:
        return self.name

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        requalified = self.requalified
        keep = self.keep
        for row in self.child.execute(ctx, outer):
            copy = dict(row) if keep is None else {k: v for k, v in row.items() if k in keep}
            if requalified:
                for column, value in row.items():
                    name = requalified.get(column)
                    if name is not None:
                        copy[name] = value
            yield copy


class LimitOp(PhysicalOp):
    """Streaming LIMIT: stops pulling from the producer after ``count``."""

    label = "Limit"

    def __init__(self, child: PhysicalOp, count: int):
        self.child = child
        self.count = count

    def children(self):
        return (self.child,)

    def detail(self) -> str:
        return str(self.count)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        if self.count < 0:
            # Degenerate negative limit: match Python slice semantics of the
            # reference implementation exactly.
            yield from list(self.child.execute(ctx, outer))[: self.count]
            return
        rows = self.child.execute(ctx, outer)
        if self.count == 0:
            # Start the child anyway, so an error it raises on its way to
            # the first row (an unknown table) surfaces as the reference's.
            next(rows, None)
            return
        yield from islice(rows, self.count)


class DistinctOp(PhysicalOp):
    """δ — streaming duplicate elimination with a cached fingerprint layout."""

    label = "Distinct"

    def __init__(self, child: PhysicalOp):
        self.child = child

    def children(self):
        return (self.child,)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        seen = set()
        fingerprint_columns = _FingerprintColumns()
        for row in self.child.execute(ctx, outer):
            fingerprint = fingerprint_columns.fingerprint(row)
            if fingerprint not in seen:
                seen.add(fingerprint)
                yield row


# ----------------------------------------------------------------------
# Sorting


class SortOp(PhysicalOp):
    """τ — full materializing sort (single pass over a composite key)."""

    label = "Sort"

    def __init__(self, child: PhysicalOp, node: Sort):
        self.child = child
        self.node = node

    def children(self):
        return (self.child,)

    def detail(self) -> str:
        return ", ".join(str(k) for k in self.node.keys)

    def _key_fn(self, ctx: ExecContext, outer: Row | None):
        scalar = ctx.scalar
        keys = self.node.keys

        def sort_key(row: Row):
            scope = ctx.merge(row, outer)
            return tuple(scalar._sort_key(k, scope) for k in keys)

        return sort_key

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        rows = list(self.child.execute(ctx, outer))
        rows.sort(key=self._key_fn(ctx, outer))
        yield from rows


class TopN(SortOp):
    """Sort+Limit fused into a bounded heap (``heapq.nsmallest``).

    ``nsmallest`` is documented to be equivalent to ``sorted(...)[:n]``
    (including stability), so the fusion cannot change tie-breaking.
    """

    label = "TopN"

    def __init__(self, child: PhysicalOp, node: Sort, count: int):
        super().__init__(child, node)
        self.count = count

    def detail(self) -> str:
        return f"{self.count} by {super().detail()}"

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        if self.count <= 0:
            # Fall back to exact reference slice semantics for 0/negative.
            rows = list(self.child.execute(ctx, outer))
            rows.sort(key=self._key_fn(ctx, outer))
            yield from rows[: self.count]
            return
        yield from nsmallest(
            self.count, self.child.execute(ctx, outer), key=self._key_fn(ctx, outer)
        )


# ----------------------------------------------------------------------
# Joins


def _combine(left: Row, right: Row, keep: frozenset[str]) -> Row:
    """The reference's joined row ``{**right, **left}`` (left values win on
    bare-name collisions), built with the names of ``keep`` only."""
    return {k: v for row in (right, left) for k, v in row.items() if k in keep}


def _padded(left: Row, right_rows: list[Row], node: Join, db, keep) -> Row:
    """An unmatched left-join row, NULL-padded as the reference pads it."""
    row = _pad_left_row(left, right_rows, node.right, db)
    return {k: v for k, v in row.items() if k in keep}


class NestedLoopJoin(PhysicalOp):
    """⋈ — the general join; mirrors the reference evaluator exactly.
    Joined rows hold the names of ``keep`` (the joins below do too)."""

    label = "NestedLoopJoin"

    def __init__(self, left: PhysicalOp, right: PhysicalOp, node: Join, keep):
        self.left = left
        self.right = right
        self.node = node
        self.keep = keep

    def children(self):
        return (self.left, self.right)

    def detail(self) -> str:
        text = self.node.kind
        if self.node.pred is not None:
            text += f" on {self.node.pred}"
        return text

    def _rows(self, ctx: ExecContext, outer: Row | None, right_rows=None) -> Iterator[Row]:
        node = self.node
        scalar = ctx.scalar
        if right_rows is None:
            right_rows = list(self.right.execute(ctx, outer))
        pred = node.pred
        keep = self.keep
        left_kind = node.kind == "left"
        for left in self.left.execute(ctx, outer):
            matched = False
            for right in right_rows:
                combined = _combine(left, right, keep)
                if pred is not None and not is_truthy(
                    scalar.eval_scalar(pred, ctx.merge(combined, outer))
                ):
                    continue
                matched = True
                yield combined
            if left_kind and not matched:
                yield _padded(left, right_rows, node, ctx.db, keep)


class HashJoin(PhysicalOp):
    """Hash equi-join: build a hash table on the right input, probe with
    the left.

    ``left_keys``/``right_keys`` are the parallel equality-conjunct sides
    extracted by the planner; ``residual`` holds the remaining conjuncts and
    is evaluated on the combined row exactly like the reference predicate.
    Joined rows hold the names of ``keep``, which covers the whole
    predicate's for the nested-loop degrade.
    Rows whose key contains NULL never match (SQL ``=`` is unknown on NULL).
    Unhashable key values degrade to the nested-loop strategy so semantics
    never change.
    """

    label = "HashJoin"

    def __init__(self, left, right, node: Join, left_keys, right_keys, residual, keep):
        self.left = left
        self.right = right
        self.node = node
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.keep = keep

    def children(self):
        return (self.left, self.right)

    def detail(self) -> str:
        keys = ", ".join(
            f"{l} = {r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        text = f"{self.node.kind} on {keys}"
        if self.residual is not None:
            text += f" residual {self.residual}"
        return text

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        node = self.node
        scalar = ctx.scalar
        right_rows = list(self.right.execute(ctx, outer))
        table: dict[tuple, list[Row]] = {}
        for right in right_rows:
            scope = ctx.merge(right, outer)
            key = tuple(scalar.eval_scalar(e, scope) for e in self.right_keys)
            if any(v is None for v in key):
                continue  # NULL keys can never satisfy the equality
            try:
                table.setdefault(key, []).append(right)
            except TypeError:
                # Unhashable join key: the nested loop is the only strategy
                # that preserves Python/SQL equality semantics exactly.
                yield from self._nested(ctx, outer, right_rows)
                return

        residual = self.residual
        keep = self.keep
        left_kind = node.kind == "left"
        for left in self.left.execute(ctx, outer):
            scope = ctx.merge(left, outer)
            key = tuple(scalar.eval_scalar(e, scope) for e in self.left_keys)
            if any(v is None for v in key):
                bucket = ()
            else:
                try:
                    bucket = table.get(key, ())
                except TypeError:
                    bucket = [
                        right
                        for right in right_rows
                        if self._keys_equal(ctx, outer, key, right)
                    ]
            matched = False
            for right in bucket:
                combined = _combine(left, right, keep)
                if residual is not None and not is_truthy(
                    scalar.eval_scalar(residual, ctx.merge(combined, outer))
                ):
                    continue
                matched = True
                yield combined
            if left_kind and not matched:
                yield _padded(left, right_rows, node, ctx.db, keep)

    def _keys_equal(self, ctx, outer, left_key, right: Row) -> bool:
        scalar = ctx.scalar
        scope = ctx.merge(right, outer)
        for value, expr in zip(left_key, self.right_keys):
            if not is_truthy(sql_compare("=", value, scalar.eval_scalar(expr, scope))):
                return False
        return True

    def _nested(self, ctx, outer, right_rows) -> Iterator[Row]:
        yield from NestedLoopJoin._rows(self, ctx, outer, right_rows)


class IndexNLJoin(PhysicalOp):
    """Index nested-loop join: probe a registered hash index on the right
    base table once per left row.

    Chosen by the planner only when the right side is a bare table with an
    explicitly registered index on the join column; the index persists
    across executions, which is what makes this beat a hash join for
    repeated (N+1-style) query workloads.  Delegates to ``fallback`` (the
    hash join) when the index cannot be built.
    """

    label = "IndexNLJoin"

    def __init__(
        self, left, node: Join, table, column, left_key, residual, fallback, layout, keep
    ):
        self.left = left
        self.node = node
        self.table = table
        self.column = column
        self.left_key = left_key
        self.residual = residual
        self.fallback = fallback
        #: The right table's row layout (see :func:`scan_layout`) and the
        #: joined rows' names.
        self.layout = layout
        self.keep = keep

    def children(self):
        return (self.left,)

    def detail(self) -> str:
        return f"{self.node.kind} {self.table}.{self.column} = {self.left_key}"

    def scanned_rows(self, ctx: ExecContext) -> int:
        return ctx.probed.get(id(self), 0)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        index = ctx.db.index_on(self.table, self.column)
        if index is None:
            yield from self.fallback.execute(ctx, outer)
            return
        node = self.node
        scalar = ctx.scalar
        layout = self.layout
        keep = self.keep
        residual = self.residual
        left_kind = node.kind == "left"
        base_rows = ctx.db.rows(self.table)
        probed = 0
        try:
            for left in self.left.execute(ctx, outer):
                scope = ctx.merge(left, outer)
                key = scalar.eval_scalar(self.left_key, scope)
                if key is None:
                    bucket = ()
                else:
                    try:
                        bucket = index.get(key, ())
                    except TypeError:
                        bucket = [
                            row
                            for row in base_rows
                            if is_truthy(sql_compare("=", key, row.get(self.column)))
                        ]
                matched = False
                for base in bucket:
                    probed += 1
                    right = {out: base[src] for out, src in layout}
                    combined = _combine(left, right, keep)
                    if residual is not None and not is_truthy(
                        scalar.eval_scalar(residual, ctx.merge(combined, outer))
                    ):
                        continue
                    matched = True
                    yield combined
                if left_kind and not matched:
                    pad_rows = [{out: base_rows[0][src] for out, src in layout}] if base_rows else []
                    yield _padded(left, pad_rows, node, ctx.db, keep)
        finally:
            ctx.probed[id(self)] = ctx.probed.get(id(self), 0) + probed


class HashSemiJoin(PhysicalOp):
    """Decorrelated EXISTS / NOT EXISTS as a hash semi/anti-join.

    The build side is the inner query with its correlation conjuncts
    removed (proved uncorrelated by the planner); its key tuples form a
    hash set probed once per outer row.  NULL build keys are excluded (the
    inner equality would be unknown) and NULL probe keys never match — the
    outer row is then dropped for EXISTS and kept for NOT EXISTS, exactly
    the reference three-valued behavior.  With no keys, this degenerates to
    the constant-EXISTS case: the build side decides emptiness once instead
    of once per outer row.  Unhashable keys delegate to ``fallback`` (the
    per-row reference strategy).
    """

    label = "HashSemiJoin"

    def __init__(self, child, build, outer_keys, inner_keys, negated, fallback):
        self.child = child
        self.build = build
        self.outer_keys = tuple(outer_keys)
        self.inner_keys = tuple(inner_keys)
        self.negated = negated
        self.fallback = fallback
        if negated:
            self.label = "HashAntiJoin"

    def children(self):
        return (self.child, self.build)

    def detail(self) -> str:
        if not self.outer_keys:
            return "uncorrelated"
        return ", ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        scalar = ctx.scalar
        keys: set[tuple] = set()
        nonempty = False
        for row in self.build.execute(ctx, outer):
            nonempty = True
            if not self.inner_keys:
                break  # emptiness is all the uncorrelated case needs
            scope = ctx.merge(row, outer)
            key = tuple(scalar.eval_scalar(e, scope) for e in self.inner_keys)
            if any(v is None for v in key):
                continue
            try:
                keys.add(key)
            except TypeError:
                yield from self.fallback.execute(ctx, outer)
                return

        negated = self.negated
        if not self.outer_keys:
            keep = (not nonempty) if negated else nonempty
            if keep:
                yield from self.child.execute(ctx, outer)
            return

        for row in self.child.execute(ctx, outer):
            scope = ctx.merge(row, outer)
            key = tuple(scalar.eval_scalar(e, scope) for e in self.outer_keys)
            if any(v is None for v in key):
                hit = False
            else:
                try:
                    hit = key in keys
                except TypeError:
                    hit = any(_tuples_equal(key, k) for k in keys)
            if (not hit) if negated else hit:
                yield row


def _tuples_equal(left: tuple, right: tuple) -> bool:
    return all(is_truthy(sql_compare("=", l, r)) for l, r in zip(left, right))


# ----------------------------------------------------------------------
# Aggregation


class _AggState:
    """Incremental state for one simple aggregate call within one group."""

    __slots__ = ("call", "count", "total", "best")

    def __init__(self, call: AggCall):
        self.call = call
        self.count = 0  # non-NULL values seen (rows for COUNT(*))
        self.total = None
        self.best = None

    def add(self, value: Any) -> None:
        func = self.call.func
        if func == "count" and self.call.arg is None:
            self.count += 1
            return
        if value is None:
            return  # SQL: aggregates skip NULLs
        self.count += 1
        if func in ("sum", "avg"):
            # Start from 0 + value so non-summable types (strings) raise the
            # same TypeError the reference's sum(values) raises.
            self.total = 0 + value if self.total is None else self.total + value
        elif func == "min":
            if self.best is None or value < self.best:
                self.best = value
        elif func == "max":
            if self.best is None or value > self.best:
                self.best = value

    def result(self) -> Any:
        func = self.call.func
        if func == "count":
            return self.count
        if self.count == 0:
            return None
        if func == "sum":
            return self.total
        if func == "avg":
            return self.total / self.count
        return self.best


#: Aggregate functions that fold incrementally, row by row.
FOLDABLE_AGGS = frozenset({"count", "sum", "min", "max", "avg"})


def foldable(node: Aggregate) -> bool:
    """True when every aggregate folds incrementally (no DISTINCT, no
    custom aggregates needing the full value list)."""
    return all(
        not item.call.distinct and item.call.func in FOLDABLE_AGGS for item in node.aggs
    )


class HashAggregate(PhysicalOp):
    """γ — hash group-by with incremental folding for built-in aggregates.

    Groups in first-seen order (matching the reference).  Simple aggregates
    (COUNT/SUM/MIN/MAX/AVG without DISTINCT) accumulate row by row without
    materializing the group's rows; DISTINCT and custom aggregates fall
    back to the reference's materialize-then-fold path per group.
    """

    label = "HashAggregate"

    def __init__(self, child: PhysicalOp, node: Aggregate):
        self.child = child
        self.node = node
        self.simple = foldable(node)

    def children(self):
        return (self.child,)

    def detail(self) -> str:
        groups = ", ".join(str(g) for g in self.node.group_by)
        calls = ", ".join(str(a) for a in self.node.aggs)
        return f"[{groups}; {calls}]" + ("" if self.simple else " (materialized)")

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        node = self.node
        check_aggregate_arguments(node)
        scalar = ctx.scalar
        child = self.child.execute(ctx, outer)

        if not self.simple:
            yield from self._materialized(ctx, outer, child)
            return

        if not node.group_by:
            states = [_AggState(item.call) for item in node.aggs]
            for row in child:
                scope = ctx.merge(row, outer)
                for state in states:
                    arg = state.call.arg
                    state.add(
                        None if arg is None else scalar.eval_scalar(arg, scope)
                    )
            yield self._emit((), states)
            return

        groups: dict[tuple, list[_AggState]] = {}
        group_by = node.group_by
        for row in child:
            scope = ctx.merge(row, outer)
            key = tuple(
                _hashable(scalar.eval_scalar(g, scope)) for g in group_by
            )
            states = groups.get(key)
            if states is None:
                states = [_AggState(item.call) for item in node.aggs]
                groups[key] = states
            for state in states:
                arg = state.call.arg
                state.add(None if arg is None else scalar.eval_scalar(arg, scope))
        for key, states in groups.items():
            yield self._emit(key, states)

    def _emit(self, key: tuple, states: list[_AggState]) -> Row:
        node = self.node
        result: Row = {}
        for group_expr, value in zip(node.group_by, key):
            name = group_expr.name if isinstance(group_expr, Col) else str(group_expr)
            result[name] = value
        for item, state in zip(node.aggs, states):
            result[item.output_name] = state.result()
        return result

    def _materialized(self, ctx, outer, child) -> Iterator[Row]:
        node = self.node
        scalar = ctx.scalar
        if not node.group_by:
            yield scalar._fold_group(node, (), list(child), outer)
            return
        groups: dict[tuple, list[Row]] = {}
        for row in child:
            scope = ctx.merge(row, outer)
            key = tuple(
                _hashable(scalar.eval_scalar(g, scope)) for g in node.group_by
            )
            groups.setdefault(key, []).append(row)
        for key, rows in groups.items():
            yield scalar._fold_group(node, key, rows, outer)


# ----------------------------------------------------------------------
# Apply


class ApplyOp(PhysicalOp):
    """OUTER APPLY: evaluate the (correlated) right plan once per left row.

    The right side is a planned subtree, so point lookups inside it can use
    indexes; padding on an empty right side mirrors the reference exactly.
    Each left row keeps every name the right side may read of it; the
    applied rows hold the names of ``keep`` only.  The right side's rows
    hold nothing else, so only the padding and — when ``cut_left`` is set —
    the left rows are cut.
    """

    label = "OuterApply"

    def __init__(self, left, right, node: OuterApply, keep, cut_left: bool):
        self.left = left
        self.right = right
        self.node = node
        self.keep = keep
        self.cut_left = cut_left

    def children(self):
        return (self.left, self.right)

    def _rows(self, ctx: ExecContext, outer: Row | None) -> Iterator[Row]:
        keep = self.keep
        cut_left = self.cut_left
        pad = [
            name
            for name in _output_names_best_effort(self.node.right, ctx.db.catalog)
            if name in keep
        ]
        for left in self.left.execute(ctx, outer):
            scope = ctx.merge(left, outer)
            inner_rows = list(self.right.execute(ctx, scope))
            if cut_left:
                left = {k: v for k, v in left.items() if k in keep}
            if inner_rows:
                for inner in inner_rows:
                    combined = dict(left)
                    for key, value in inner.items():
                        if key not in combined:
                            combined[key] = value
                    yield combined
            else:
                padded = dict(left)
                for name in pad:
                    padded.setdefault(name, None)
                yield padded
