"""Logical→physical plan lowering with cost-based physical selection.

The :class:`Planner` turns a relational algebra tree into a tree of
:mod:`repro.db.physical` operators.  Every lowering decision here is
*conservative*: an optimization is chosen only when static analysis over
exact scope-name sets proves the optimized operator resolves every column
reference to the same value the reference evaluator would, under any outer
row.  Whenever that proof fails — inexact scopes, suffix-fallback column
lookups, expressions hiding subqueries — the planner emits the general
operator that mirrors the reference evaluator line for line.

Among the alternatives that *do* pass the soundness proof, the planner no
longer applies fixed heuristics: each choice point builds a group in the
Volcano-style memo (:class:`repro.db.andor.Memo`) whose alternatives are
costed from observed table statistics (:mod:`repro.db.stats` — row counts,
NDV, histograms), and the cheapest alternative wins.  Ties keep the first
candidate listed, which encodes the pre-cost preference order.  Join
*order* is never searched: the reference's row order (left-major loops,
first-seen groups) is part of the contract, so costing only picks among
order-preserving strategies for the same shape.

Lowerings considered:

* ``σ`` with equality conjuncts over a base table → :class:`IndexLookup`
  (auto-indexed on declared key columns, or on explicitly registered
  indexes); with several indexed conjuncts the NDV-best one is probed.
  Inside an OUTER APPLY's right side the probe may be correlated with the
  apply's outer scope (the names every left row carries), and such a probe
  is indexed on any column.
* ``σ`` whose predicate conjoins an ``EXISTS`` subquery → hash
  semi/anti-join, decorrelating equality conjuncts between inner and outer
  columns; uncorrelated ``EXISTS`` degenerates to a single emptiness probe.
* ``σ``/``π``/``γ``/``τ`` (also ``τ`` under ``LIMIT``) over a base-table
  scan whose expressions are all vectorizable →
  :class:`~repro.db.columnar.ColumnarPipeline`, when the table clears the
  statistics-derived size threshold (the plan-time half of the adaptive
  engine switch) — except point predicates an index can answer, which the
  estimator keeps on the probe path.
* ``⋈`` (inner/left) with extractable equality keys → :class:`HashJoin`,
  :class:`~repro.db.columnar.ColumnarHashJoin` when both inputs are
  vectorizable scan shapes, or :class:`IndexNLJoin` when the right side
  is a base table with an explicitly registered index on the join column
  and the estimated probe cost beats the hash build.
* correlated semi/anti joins → :class:`HashSemiJoin` or
  :class:`~repro.db.columnar.ColumnarSemiJoin` (uncorrelated ``EXISTS``
  always stays row: its build short-circuits after one row).
* ``τ`` under ``LIMIT`` → :class:`TopN` (bounded heap).
* Everything else → streaming counterparts of the reference operators.

Every cost decision leaves a breadcrumb in ``Database.last_plan_search``:
the chosen operator, its cost, each rejected alternative's cost, and the
margin — surfaced through ``explain()`` as ``"plan_search"``.
"""

from __future__ import annotations

from ..algebra import (
    Aggregate,
    Alias,
    BinOp,
    Catalog,
    Col,
    Distinct,
    ExistsExpr,
    Join,
    Limit,
    OuterApply,
    Project,
    RelExpr,
    ScalarExpr,
    ScalarSubquery,
    Select,
    Sort,
    Table,
    UnOp,
    conjoin,
    walk_scalar,
)
from .andor import AndNode, Memo
from .columnar import (
    ColumnarHashJoin,
    ColumnarPipeline,
    ColumnarSemiJoin,
    residual_layout,
    supported_expr,
    supported_join_expr,
)
from .engine import Database, EngineError, _output_names_best_effort
from .physical import (
    AliasOp,
    ApplyOp,
    DistinctOp,
    FilterOp,
    HashAggregate,
    HashJoin,
    HashSemiJoin,
    IndexLookup,
    IndexNLJoin,
    LimitOp,
    NestedLoopJoin,
    PhysicalOp,
    ProjectOp,
    SeqScan,
    SortOp,
    TopN,
)
from .stats import COLUMNAR_MIN_ROWS, CardinalityEstimator

#: Wrapper operators that preserve (non-)emptiness of their child, so an
#: EXISTS test can see through them.  Limit needs ``count >= 1`` (checked
#: separately); Aggregate without GROUP BY always returns one row and must
#: NOT be peeled.
_EMPTINESS_PRESERVING = (Project, Distinct, Sort, Alias)

#: Cost-model unit weights, calibrated on the ``bench_engine`` workloads.
#: Only ratios matter: a row operator pays ``_C_ROW`` per row materialized
#: (dict copy + qualified keys) and ``_C_EVAL`` per row-at-a-time scalar
#: expression evaluation; vectorized evaluation costs ``_C_VEC`` per row
#: per expression; a hash/index probe costs ``_C_PROBE``.
_C_ROW = 1.0
_C_EVAL = 0.55
_C_VEC = 0.06
_C_PROBE = 0.25

#: Aggregate functions the columnar pipeline can fold (same set as the
#: row engine's incremental path).
_FOLDABLE_AGGS = frozenset({"count", "sum", "min", "max", "avg"})


def split_conjuncts(pred: ScalarExpr | None) -> list[ScalarExpr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if pred is None:
        return []
    if isinstance(pred, BinOp) and pred.op.upper() == "AND":
        return split_conjuncts(pred.left) + split_conjuncts(pred.right)
    return [pred]


def _has_subquery(expr: ScalarExpr) -> bool:
    """True when ``expr`` hides column references inside a subquery.

    ``walk_scalar`` does not descend into subquery relational trees, so any
    classification of such an expression by its visible columns would be
    unsound.
    """
    return any(
        isinstance(node, (ExistsExpr, ScalarSubquery)) for node in walk_scalar(expr)
    )


def _cols_of(expr: ScalarExpr) -> list[Col]:
    return [node for node in walk_scalar(expr) if isinstance(node, Col)]


def scope_names(node: RelExpr, catalog: Catalog) -> frozenset[str] | None:
    """The *exact* set of row keys ``node`` produces, or ``None`` if it
    cannot be determined statically.

    Exactness is what makes side-classification sound: a column reference
    resolves directly (before the evaluator's suffix-fallback) if and only
    if its name is in this set.
    """
    if isinstance(node, Table):
        if node.name not in catalog:
            return None
        columns = catalog.get(node.name).column_names()
        alias = node.alias or node.name
        return frozenset(columns) | frozenset(f"{alias}.{c}" for c in columns)
    if isinstance(node, (Select, Sort, Distinct, Limit)):
        return scope_names(node.child, catalog)
    if isinstance(node, Alias):
        child = scope_names(node.child, catalog)
        if child is None:
            return None
        return child | frozenset(
            f"{node.name}.{c}" for c in child if "." not in c
        )
    if isinstance(node, Project):
        child = scope_names(node.child, catalog)
        if child is None:
            return None
        star = any(
            isinstance(item.expr, Col) and item.expr.name == "*"
            for item in node.items
        )
        names = {
            item.output_name
            for item in node.items
            if not (isinstance(item.expr, Col) and item.expr.name == "*")
        }
        # Qualified source columns always pass through the projection.
        names.update(c for c in child if "." in c)
        if star:
            names.update(child)
        return frozenset(names)
    if isinstance(node, Aggregate):
        names = {
            g.name if isinstance(g, Col) else str(g) for g in node.group_by
        }
        names.update(item.output_name for item in node.aggs)
        return frozenset(names)
    if isinstance(node, Join):
        left = scope_names(node.left, catalog)
        right = scope_names(node.right, catalog)
        if left is None or right is None:
            return None
        return left | right
    return None  # OuterApply and anything unknown: inexact


def guaranteed_names(node: RelExpr, catalog: Catalog) -> frozenset[str]:
    """Names present on *every* row of ``node`` — a subset of its keys,
    unlike :func:`scope_names`, which must be exact.

    An OUTER APPLY row carries its left row plus either a matched right row
    (every name of the right scope) or the NULL padding (only the names
    :func:`_output_names_best_effort` pads).  Qualified pass-through
    columns of the right side are therefore *not* guaranteed: a padded row
    lacks them, and a later reference to one falls back to its bare name.
    Any shape whose scope is unknown guarantees nothing."""
    if isinstance(node, OuterApply):
        left = guaranteed_names(node.left, catalog)
        right = scope_names(node.right, catalog)
        if right is None:
            return left
        padded = frozenset(_output_names_best_effort(node.right, catalog))
        return left | (right & padded)
    return scope_names(node, catalog) or frozenset()


def _resolves_strictly(col: Col, names: frozenset[str]) -> bool:
    """True when ``col`` gets a direct hit in a row with exactly ``names``
    (no bare-name fallback of a qualified reference, no suffix fallback) —
    the condition under which its value cannot be diverted by merged outer
    rows."""
    if col.qualifier:
        return f"{col.qualifier}.{col.name}" in names
    return col.name in names


def _interferes(col: Col, names: frozenset[str]) -> bool:
    """True when resolving ``col`` against a row *merged with* a row of
    ``names`` could produce a different value than without it (direct hit,
    qualified bare-name fallback, or suffix-fallback candidate)."""
    if col.qualifier:
        if f"{col.qualifier}.{col.name}" in names:
            return True
        return col.name in names  # qualified lookup falls back to bare
    if col.name in names:
        return True
    suffix = f".{col.name}"
    return any(name.endswith(suffix) for name in names)


def _outer_side_safe(
    col: Col, inner_names: frozenset[str], outer_names: frozenset[str] | None
) -> bool:
    """True when ``col`` resolves to the same value on the outer scope alone
    as on the outer scope merged with an inner row (inner keys winning) —
    the soundness condition for moving an EXISTS correlation column from the
    inner predicate to the semi-join's probe side.

    The lookup order is qualified name, then bare name, then suffix
    fallback; the inner row can only divert a step the outer scope does not
    already satisfy."""
    if outer_names is None:
        return not _interferes(col, inner_names)
    if col.qualifier:
        qualified = f"{col.qualifier}.{col.name}"
        if qualified in inner_names:
            return False  # inner row wins the qualified lookup
        if qualified in outer_names:
            return True
        # Qualified miss on both: falls back to the bare name either way.
    if col.name in inner_names:
        return False  # inner row wins the bare lookup
    if col.name in outer_names:
        return True
    if col.qualifier is None:
        # Suffix fallback: the inner row must contribute no candidates,
        # else the merged lookup sees a different (possibly ambiguous) set.
        suffix = f".{col.name}"
        return not any(name.endswith(suffix) for name in inner_names)
    return True  # resolves (or errors) identically via the ambient scope


def _side_of_col(col: Col, left: frozenset[str], right: frozenset[str]) -> str | None:
    """Which join input a column resolves against on the combined row.

    Mirrors the evaluator's lookup order on ``{**right, **left}``: the
    qualified name is checked on both sides before the bare-name fallback,
    and the left side wins collisions.  ``None`` means the reference would
    use the suffix fallback (or the outer row) — unclassifiable.
    """
    if col.qualifier:
        qualified = f"{col.qualifier}.{col.name}"
        if qualified in left:
            return "left"
        if qualified in right:
            return "right"
    if col.name in left:
        return "left"
    if col.name in right:
        return "right"
    return None


def _side_of_expr(
    expr: ScalarExpr, left: frozenset[str], right: frozenset[str]
) -> str | None:
    """Classify an expression to the single join side all its columns
    resolve against.  Column-free expressions and mixed-side expressions
    return ``None`` (kept in the residual predicate)."""
    if _has_subquery(expr):
        return None
    sides = {_side_of_col(c, left, right) for c in _cols_of(expr)}
    if len(sides) == 1:
        return sides.pop()
    return None


class Planner:
    """Lowers algebra trees to physical plans for one :class:`Database`.

    ``columnar`` overrides the database's columnar mode for this lowering:
    ``"auto"`` (cost + statistics threshold), ``"off"`` (row operators
    only), or ``"force"`` (columnar wherever structurally supported — used
    by differential tests and benchmarks to pin the engine).
    """

    def __init__(self, db: Database, columnar: str | None = None):
        self.db = db
        self.catalog = db.catalog
        self.columnar = columnar if columnar is not None else db.columnar_mode
        self.estimator = CardinalityEstimator(db)
        self.memo = Memo()
        self._alternatives = 0
        self._choices: list[dict] = []
        #: While lowering an OUTER APPLY's right side: the names every
        #: outer row it runs under is guaranteed to carry.  ``None``
        #: elsewhere — the outer scope is unknown.
        self._outer_scope: frozenset[str] | None = None

    # ------------------------------------------------------------------

    def lower(self, node: RelExpr) -> PhysicalOp:
        plan = self._lower(node)
        # Search-size breadcrumbs for tests and EXPLAIN-style introspection.
        self.db.last_plan_search = {
            "groups": len(self.memo),
            "alternatives": self._alternatives,
            "choices": self._choices,
        }
        return plan

    def _choose(self, label: str, candidates) -> PhysicalOp:
        """Record one memo group of costed alternatives and return the
        winner's plan.  ``candidates`` is ``[(op_name, cost, plan), ...]``;
        the memo's strict-< minimization keeps the first on ties.

        Each decision leaves a breadcrumb in ``last_plan_search["choices"]``
        with the rejected alternatives' costs and the winner's margin (how
        much cheaper the winner was than the best rejected candidate), so
        ``explain()`` can show *why* an operator was picked."""
        group = self.memo.new_group(label)
        for op, cost, plan in candidates:
            if group.add(AndNode(op=op, local_cost=cost, payload=plan)):
                self._alternatives += 1
        best = self.memo.optimize(group.group_id).alternative
        rejected = [
            {"op": op, "cost": cost}
            for op, cost, plan in candidates
            if plan is not best.payload
        ]
        self._choices.append(
            {
                "label": label,
                "chosen": best.op,
                "cost": best.local_cost,
                "rejected": rejected,
                "margin": (
                    min(r["cost"] for r in rejected) - best.local_cost
                    if rejected
                    else None
                ),
            }
        )
        return best.payload

    # ------------------------------------------------------------------

    def _lower(self, node: RelExpr, allow_columnar: bool = True) -> PhysicalOp:
        if isinstance(node, Table):
            return SeqScan(node.name, node.alias)
        if isinstance(node, Select):
            return self._lower_select(node, allow_columnar)
        if isinstance(node, Project):
            return self._lower_project(node, allow_columnar)
        if isinstance(node, Join):
            return self._lower_join(node, allow_columnar)
        if isinstance(node, Aggregate):
            return self._lower_aggregate(node, allow_columnar)
        if isinstance(node, Sort):
            return self._columnar_order(node, None, allow_columnar)
        if isinstance(node, Distinct):
            return DistinctOp(self._lower(node.child))
        if isinstance(node, Limit):
            if isinstance(node.child, Sort):
                return self._columnar_order(node.child, node.count, allow_columnar)
            # A columnar pipeline consumes its whole input before emitting,
            # which would defeat LIMIT's early exit — unless the child is
            # an aggregate, which must consume everything anyway.
            allow = isinstance(node.child, Aggregate)
            return LimitOp(self._lower(node.child, allow_columnar=allow), node.count)
        if isinstance(node, OuterApply):
            return ApplyOp(self._lower(node.left), self._lower_applied(node), node)
        if isinstance(node, Alias):
            return AliasOp(self._lower(node.child), node.name)
        raise EngineError(f"cannot evaluate {type(node).__name__}")

    def _lower_applied(self, node: OuterApply) -> PhysicalOp:
        """Lower an apply's right side knowing its outer scope: every
        operator below passes its outer row through unchanged, so each
        one sees the left row merged over the apply's own outer row — the
        enclosing apply's scope when nested."""
        saved = self._outer_scope
        self._outer_scope = guaranteed_names(node.left, self.catalog) | (
            saved or frozenset()
        )
        try:
            return self._lower(node.right)
        finally:
            self._outer_scope = saved

    # ------------------------------------------------------------------
    # Selection

    def _lower_select(self, node: Select, allow_columnar: bool = True) -> PhysicalOp:
        conjuncts = split_conjuncts(node.pred)

        exists, negated, others = self._find_exists_conjunct(conjuncts)
        if exists is not None:
            semi = self._try_semi_join(node, exists, negated, others)
            if semi is not None:
                return semi

        table = node.child
        if not (isinstance(table, Table) and table.name in self.catalog):
            return FilterOp(self._lower(table, allow_columnar), node.pred)

        est = self.estimator
        row_count = est.table_rows(table.name)
        filter_plan = FilterOp(SeqScan(table.name, table.alias), node.pred)
        candidates = []

        lookup, probe_rows = self._best_index_lookup(node, conjuncts)
        if lookup is not None:
            candidates.append(
                ("IndexLookup", _C_PROBE + probe_rows * (_C_ROW + _C_EVAL), lookup)
            )

        if allow_columnar:
            pipeline = self._pipeline(
                table,
                node.pred,
                ("filter", None),
                (),
                fallback=lookup if lookup is not None else filter_plan,
            )
            if pipeline is not None:
                if self.columnar == "force":
                    return pipeline
                out = row_count * est.selectivity(node.pred, table.name)
                # Point-predicate guard: when an index probe exists and the
                # estimator says the predicate keeps only a handful of rows,
                # vectorizing the whole scan cannot beat the O(1) probe —
                # drop the columnar candidate instead of letting a skewed
                # cost constant pick it.
                if lookup is None or out >= COLUMNAR_MIN_ROWS:
                    candidates.append(
                        ("Columnar", row_count * _C_VEC + out * _C_ROW, pipeline)
                    )

        candidates.append(("Filter", row_count * (_C_ROW + _C_EVAL), filter_plan))
        return self._choose(f"select({table.name})", candidates)

    @staticmethod
    def _find_exists_conjunct(conjuncts):
        """Pop the first (possibly NOT-wrapped) EXISTS conjunct."""
        for i, conjunct in enumerate(conjuncts):
            negated = False
            expr = conjunct
            while isinstance(expr, UnOp) and expr.op.upper() == "NOT":
                negated = not negated
                expr = expr.operand
            if isinstance(expr, ExistsExpr):
                others = conjuncts[:i] + conjuncts[i + 1 :]
                return expr, negated ^ expr.negated, others
        return None, False, conjuncts

    def _try_semi_join(self, node, exists, negated, others):
        """Lower ``σ[... AND EXISTS(Q)]`` to a hash semi/anti-join.

        Returns ``None`` (caller falls back to a per-row filter) unless the
        inner query, stripped of its correlation equality conjuncts, is
        provably closed — i.e. evaluates to the same rows under any outer
        scope."""
        core = exists.query
        while True:
            if isinstance(core, _EMPTINESS_PRESERVING):
                core = core.child
                continue
            if isinstance(core, Limit) and core.count >= 1:
                core = core.child
                continue
            break
        if isinstance(core, (Aggregate, OuterApply)):
            # γ without grouping returns a row over empty input; APPLY is
            # correlated by construction.  Both void the emptiness argument.
            return None

        if isinstance(core, Select):
            inner_rel = core.child
            inner_conjuncts = split_conjuncts(core.pred)
        else:
            inner_rel = core
            inner_conjuncts = []

        inner_names = scope_names(inner_rel, self.catalog)
        if inner_names is None:
            return None
        outer_names = scope_names(node.child, self.catalog)

        outer_keys: list[ScalarExpr] = []
        inner_keys: list[ScalarExpr] = []
        residual: list[ScalarExpr] = []
        for conjunct in inner_conjuncts:
            pair = self._correlation_pair(conjunct, inner_names, outer_names)
            if pair is not None:
                inner_keys.append(pair[0])
                outer_keys.append(pair[1])
            else:
                residual.append(conjunct)

        build_rel: RelExpr = inner_rel
        if residual:
            build_rel = Select(inner_rel, conjoin(*residual))
        if not self._closed(build_rel):
            return None

        child_plan = self._filtered_child(node, others)
        row_semi = HashSemiJoin(
            child_plan,
            self._lower(build_rel),
            outer_keys,
            inner_keys,
            negated,
            fallback=FilterOp(child_plan, ExistsExpr(exists.query, negated)),
        )
        # The keyless (uncorrelated) case must stay on the row operator:
        # its build probes emptiness with a single row, an early exit a
        # vectorized build would lose (and whose error behavior it would
        # change by evaluating the build predicate on every row).
        if not inner_keys:
            return row_semi
        col_semi = self._columnar_semi(
            node, others, build_rel, outer_keys, inner_keys, negated, row_semi
        )
        if col_semi is None:
            return row_semi
        if self.columnar == "force":
            return col_semi
        est = self.estimator
        child_rel = node.child if not others else Select(node.child, conjoin(*others))
        child_rows = est.estimate(child_rel)
        build_rows = est.estimate(build_rel)
        total = est.table_rows(col_semi.child_name) + est.table_rows(
            col_semi.build_name
        )
        out = child_rows * _C_ROW  # same output either way: cancels, kept
        col_cost = total * _C_VEC + (child_rows + build_rows) * _C_PROBE + out
        row_cost = (
            self._input_cost(child_rel)
            + self._input_cost(build_rel)
            + build_rows * _C_ROW
            + child_rows * _C_PROBE
            + out
        )
        return self._choose(
            f"semi({col_semi.child_name})",
            [
                ("ColumnarSemiJoin", col_cost, col_semi),
                (row_semi.label, row_cost, row_semi),
            ],
        )

    def _filtered_child(self, node: Select, others) -> PhysicalOp:
        """Lower the Select's child with the non-EXISTS conjuncts applied
        (re-entering selection lowering so point lookups still trigger)."""
        if not others:
            return self._lower(node.child)
        return self._lower_select(Select(node.child, conjoin(*others)))

    def _correlation_pair(self, conjunct, inner_names, outer_names):
        """Split ``inner_col = outer_expr`` (either orientation) out of an
        EXISTS predicate.  Returns ``(inner_expr, outer_expr)`` or ``None``.

        The inner side must resolve strictly inside the inner scope; every
        column of the outer side must resolve the same with or without an
        inner row merged in (:func:`_outer_side_safe`)."""
        if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
            return None
        for inner, outer in ((conjunct.left, conjunct.right),
                             (conjunct.right, conjunct.left)):
            if _has_subquery(inner) or _has_subquery(outer):
                return None
            inner_cols = _cols_of(inner)
            outer_cols = _cols_of(outer)
            if not inner_cols or not outer_cols:
                continue
            if not all(_resolves_strictly(c, inner_names) for c in inner_cols):
                continue
            if not all(
                _outer_side_safe(c, inner_names, outer_names) for c in outer_cols
            ):
                continue
            return inner, outer
        return None

    def _closed(self, rel: RelExpr) -> bool:
        """True when every column reference in ``rel`` resolves strictly
        against its local scope, making the subtree's result independent of
        any outer row it is merged with."""
        if isinstance(rel, Table):
            return rel.name in self.catalog
        if isinstance(rel, Select):
            scope = scope_names(rel.child, self.catalog)
            return (
                scope is not None
                and self._scalars_closed([rel.pred], scope)
                and self._closed(rel.child)
            )
        if isinstance(rel, Project):
            scope = scope_names(rel.child, self.catalog)
            return (
                scope is not None
                and self._scalars_closed(
                    [i.expr for i in rel.items
                     if not (isinstance(i.expr, Col) and i.expr.name == "*")],
                    scope,
                )
                and self._closed(rel.child)
            )
        if isinstance(rel, Join):
            left = scope_names(rel.left, self.catalog)
            right = scope_names(rel.right, self.catalog)
            if left is None or right is None:
                return False
            preds = [] if rel.pred is None else [rel.pred]
            return (
                self._scalars_closed(preds, left | right)
                and self._closed(rel.left)
                and self._closed(rel.right)
            )
        if isinstance(rel, Aggregate):
            scope = scope_names(rel.child, self.catalog)
            exprs = list(rel.group_by)
            exprs.extend(
                item.call.arg for item in rel.aggs if item.call.arg is not None
            )
            return (
                scope is not None
                and self._scalars_closed(exprs, scope)
                and self._closed(rel.child)
            )
        if isinstance(rel, Sort):
            scope = scope_names(rel.child, self.catalog)
            return (
                scope is not None
                and self._scalars_closed([k.expr for k in rel.keys], scope)
                and self._closed(rel.child)
            )
        if isinstance(rel, (Distinct, Limit, Alias)):
            return self._closed(rel.child)
        return False  # OuterApply or unknown node

    def _scalars_closed(self, exprs, scope: frozenset[str]) -> bool:
        for expr in exprs:
            if _has_subquery(expr):
                return False
            if not all(_resolves_strictly(c, scope) for c in _cols_of(expr)):
                return False
        return True

    # ------------------------------------------------------------------
    # Point lookups

    def _best_index_lookup(self, node: Select, conjuncts):
        """Build ``σ[col = expr AND ...](T)`` as a hash-index point lookup.

        Applies when a probed column is part of the table's declared key
        (auto-indexed on first use) or carries a registered index, and the
        probe expression resolves the same with or without the table's row
        merged in (:func:`_outer_side_safe` against the known outer scope).
        A probe correlated with an OUTER APPLY's outer scope earns an
        auto-built index on any column.  Among several indexable
        conjuncts, the one with the highest NDV (fewest expected matches) is
        probed.  Returns ``(plan, estimated_rows)`` or ``(None, None)``."""
        table = node.child
        if not isinstance(table, Table) or table.name not in self.catalog:
            return None, None
        outer = self._outer_scope
        names = scope_names(table, self.catalog)
        columns = set(self.catalog.get(table.name).column_names())
        declared_key = set(self.catalog.get(table.name).key)
        row_count = self.estimator.table_rows(table.name)

        best = None  # (estimated rows, conjunct index, column, probe expr)
        for i, conjunct in enumerate(conjuncts):
            if not (isinstance(conjunct, BinOp) and conjunct.op == "="):
                continue
            for col, probe in ((conjunct.left, conjunct.right),
                               (conjunct.right, conjunct.left)):
                if not isinstance(col, Col) or col.name not in columns:
                    continue
                if not _resolves_strictly(col, names):
                    continue
                if _has_subquery(probe):
                    continue
                probe_cols = _cols_of(probe)
                if not all(_outer_side_safe(c, names, outer) for c in probe_cols):
                    continue
                indexed = (
                    col.name in declared_key
                    or self.db.has_index(table.name, col.name)
                    # A correlated probe under an apply reruns per outer row.
                    or (outer is not None and bool(probe_cols))
                )
                if not indexed:
                    continue
                ndv = self.estimator.ndv(table.name, col.name) or 1
                estimated = row_count / max(ndv, 1)
                if best is None or estimated < best[0]:
                    best = (estimated, i, col, probe)
                break
        if best is None:
            return None, None
        estimated, i, col, probe = best
        residual = conjoin(*(conjuncts[:i] + conjuncts[i + 1 :]))
        fallback = FilterOp(SeqScan(table.name, table.alias), node.pred)
        return (
            IndexLookup(table.name, table.alias, col.name, probe, residual, fallback),
            estimated,
        )

    # ------------------------------------------------------------------
    # Columnar pipelines

    def _pipeline(self, table: Table, pred, head, head_exprs, fallback):
        """A :class:`ColumnarPipeline` over ``table``, or ``None`` when the
        mode, the statistics threshold, or expression support rules it
        out."""
        if self.columnar == "off":
            return None
        schema = self.catalog.get(table.name)
        columns = set(schema.column_names())
        alias = table.alias or table.name
        exprs = list(head_exprs)
        if pred is not None:
            exprs.append(pred)
        if not all(supported_expr(e, alias, columns) for e in exprs):
            return None
        if self.columnar == "force":
            min_rows = 0
        else:
            if self.db.stats(table.name).row_count < COLUMNAR_MIN_ROWS:
                return None
            min_rows = COLUMNAR_MIN_ROWS
        return ColumnarPipeline(
            table.name, table.alias, schema.column_names(), pred, head,
            fallback, min_rows,
        )

    def _scan_shape(self, rel: RelExpr):
        """Decompose ``rel`` as ``[σ] over base table``; returns
        ``(table, pred, select_node)`` or ``(None, None, None)``."""
        if isinstance(rel, Table) and rel.name in self.catalog:
            return rel, None, None
        if (
            isinstance(rel, Select)
            and isinstance(rel.child, Table)
            and rel.child.name in self.catalog
        ):
            return rel.child, rel.pred, rel
        return None, None, None

    def _lower_project(self, node: Project, allow_columnar: bool = True) -> PhysicalOp:
        plan = self._columnar_head(node, allow_columnar)
        if plan is not None:
            return plan
        return ProjectOp(self._lower(node.child, allow_columnar), node)

    def _lower_aggregate(self, node: Aggregate, allow_columnar: bool = True) -> PhysicalOp:
        plan = self._columnar_head(node, allow_columnar)
        if plan is not None:
            return plan
        return HashAggregate(self._lower(node.child, allow_columnar), node)

    def _columnar_head(self, node, allow_columnar: bool) -> PhysicalOp | None:
        """Try lowering ``γ`` or ``π`` over ``[σ] over base table`` as one
        columnar pipeline; ``None`` defers to the generic row lowering."""
        if not allow_columnar or self.columnar == "off":
            return None
        table, pred, select_node = self._scan_shape(node.child)
        if table is None:
            return None

        if isinstance(node, Aggregate):
            if any(
                item.call.distinct or item.call.func not in _FOLDABLE_AGGS
                for item in node.aggs
            ):
                return None
            head_exprs = list(node.group_by) + [
                item.call.arg for item in node.aggs if item.call.arg is not None
            ]
            head = ("aggregate", node)
            row_plan = HashAggregate(
                self._lower(node.child, allow_columnar=False), node
            )
            row_op = "HashAggregate"
            label = f"aggregate({table.name})"
        else:
            head_exprs = [item.expr for item in node.items]
            head = ("project", node)
            row_plan = ProjectOp(
                self._lower(node.child, allow_columnar=False), node
            )
            row_op = "Project"
            label = f"project({table.name})"

        pipeline = self._pipeline(table, pred, head, head_exprs, fallback=row_plan)
        if pipeline is None:
            return None
        if self.columnar == "force":
            return pipeline

        out = self.estimator.estimate(node)
        row_cost, col_cost = self._head_costs(
            table, pred, head_exprs, out, select_node
        )
        return self._choose(
            label,
            [("Columnar", col_cost, pipeline), (row_op, row_cost, row_plan)],
        )

    def _head_costs(self, table: Table, pred, head_exprs, out, select_node):
        """Cost a π/γ head on the row path vs. the columnar pipeline."""
        est = self.estimator
        row_count = est.table_rows(table.name)
        n_exprs = len(head_exprs)
        if pred is None:
            rows_in = row_count
            row_scan = row_count * _C_ROW
            col_scan = 0.0
        else:
            rows_in = row_count * est.selectivity(pred, table.name)
            lookup, probe_rows = self._best_index_lookup(
                select_node, split_conjuncts(pred)
            )
            if lookup is not None:
                # The row path would probe an index instead of scanning.
                row_scan = _C_PROBE + probe_rows * (_C_ROW + _C_EVAL)
            else:
                row_scan = row_count * (_C_ROW + _C_EVAL)
            col_scan = row_count * _C_VEC
        row_cost = row_scan + rows_in * _C_EVAL * n_exprs + out * _C_ROW
        col_cost = col_scan + rows_in * _C_VEC * n_exprs + out * _C_ROW
        return row_cost, col_cost

    def _columnar_order(self, node: Sort, count, allow_columnar: bool) -> PhysicalOp:
        """Lower ``τ`` (or ``LIMIT`` over ``τ``) with a columnar sort/top-N
        candidate when the child is a vectorizable filtered scan; otherwise
        exactly the generic :class:`SortOp`/:class:`TopN` lowering."""
        if allow_columnar and self.columnar != "off":
            table, pred, select_node = self._scan_shape(node.child)
        else:
            table, pred, select_node = None, None, None
        if table is not None:
            head_exprs = [k.expr for k in node.keys]
            head = ("sort", node) if count is None else ("topn", (node, count))
            row_child = self._lower(node.child, allow_columnar=False)
            row_plan = (
                SortOp(row_child, node)
                if count is None
                else TopN(row_child, node, count)
            )
            pipeline = self._pipeline(
                table, pred, head, head_exprs, fallback=row_plan
            )
            if pipeline is not None:
                if self.columnar == "force":
                    return pipeline
                est = self.estimator
                rows_in = est.table_rows(table.name)
                if pred is not None:
                    rows_in *= est.selectivity(pred, table.name)
                out = rows_in if count is None else min(max(count, 0), rows_in)
                row_cost, col_cost = self._head_costs(
                    table, pred, head_exprs, out, select_node
                )
                kind = "sort" if count is None else "topn"
                return self._choose(
                    f"{kind}({table.name})",
                    [
                        ("Columnar", col_cost, pipeline),
                        (row_plan.label, row_cost, row_plan),
                    ],
                )
        child = self._lower(node.child, allow_columnar)
        return SortOp(child, node) if count is None else TopN(child, node, count)

    def _vector_side(self, rel: RelExpr, exprs):
        """Decompose ``rel`` as a vectorizable (possibly filtered) scan.

        Returns the ``(table, alias, columns, pred)`` side descriptor the
        columnar join operators consume, or ``None`` when the shape or any
        expression (the scan predicate plus the join-key ``exprs`` that
        must evaluate against this side alone) is outside the vector
        subset."""
        table, pred, _ = self._scan_shape(rel)
        if table is None:
            return None
        alias = table.alias or table.name
        columns = self.catalog.get(table.name).column_names()
        column_set = set(columns)
        checks = list(exprs)
        if pred is not None:
            checks.append(pred)
        if not all(supported_expr(e, alias, column_set) for e in checks):
            return None
        return (table.name, alias, tuple(columns), pred)

    def _input_cost(self, rel: RelExpr) -> float:
        """Row-path cost of producing ``rel``'s rows: per-row dict
        materialization plus per-row predicate evaluation for filtered
        scans; cardinality × row cost for anything else."""
        table, pred, _ = self._scan_shape(rel)
        if table is not None:
            n = self.estimator.table_rows(table.name)
            return n * (_C_ROW + (_C_EVAL if pred is not None else 0.0))
        return self.estimator.estimate(rel) * _C_ROW

    # ------------------------------------------------------------------
    # Joins

    def _lower_join(self, node: Join, allow_columnar: bool = True) -> PhysicalOp:
        left_plan = self._lower(node.left)
        right_plan = self._lower(node.right)
        if node.pred is None:
            return NestedLoopJoin(left_plan, right_plan, node)

        left_names = scope_names(node.left, self.catalog)
        right_names = scope_names(node.right, self.catalog)
        if left_names is None or right_names is None:
            return NestedLoopJoin(left_plan, right_plan, node)

        left_keys: list[ScalarExpr] = []
        right_keys: list[ScalarExpr] = []
        residual: list[ScalarExpr] = []
        for conjunct in split_conjuncts(node.pred):
            keyed = False
            if isinstance(conjunct, BinOp) and conjunct.op == "=":
                a_side = _side_of_expr(conjunct.left, left_names, right_names)
                b_side = _side_of_expr(conjunct.right, left_names, right_names)
                if a_side == "left" and b_side == "right":
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                    keyed = True
                elif a_side == "right" and b_side == "left":
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
                    keyed = True
            if not keyed:
                residual.append(conjunct)

        if not left_keys:
            return NestedLoopJoin(left_plan, right_plan, node)

        residual_pred = conjoin(*residual)
        hash_join = HashJoin(
            left_plan, right_plan, node, left_keys, right_keys, residual_pred
        )

        col_join = None
        if allow_columnar and self.columnar != "off":
            col_join = self._columnar_join(
                node, left_keys, right_keys, residual_pred, hash_join
            )
        if col_join is not None and self.columnar == "force":
            return col_join

        est = self.estimator
        # Index nested-loop only on explicit opt-in (create_index): for a
        # one-shot join the hash build is at least as good, but a
        # registered index persists across queries.  Among the
        # order-preserving strategies, estimated cost decides.
        index_candidate = None
        right_key = right_keys[0]
        if (
            len(right_keys) == 1
            and isinstance(node.right, Table)
            and isinstance(right_key, Col)
            and right_key.name
            in set(self.catalog.get(node.right.name).column_names())
            and self.db.has_index(node.right.name, right_key.name)
        ):
            left_rows = est.estimate(node.left)
            right_rows = est.estimate(node.right)
            ndv = est.ndv(node.right.name, right_key.name) or 1
            matches = right_rows / max(ndv, 1)
            inl = IndexNLJoin(
                left_plan,
                node,
                node.right.name,
                node.right.alias,
                right_key.name,
                left_keys[0],
                residual_pred,
                fallback=hash_join,
            )
            index_candidate = (
                "IndexNLJoin",
                left_rows * (_C_PROBE + matches * _C_ROW),
                inl,
            )

        if col_join is None:
            if index_candidate is None:
                return hash_join
            left_rows = est.estimate(node.left)
            right_rows = est.estimate(node.right)
            return self._choose(
                f"join({node.right.name})",
                [
                    index_candidate,
                    (
                        "HashJoin",
                        right_rows * _C_ROW + left_rows * (_C_PROBE + _C_ROW),
                        hash_join,
                    ),
                ],
            )

        # A columnar candidate replaces the child scans too, so this group
        # costs each strategy subtree-inclusively: row strategies pay their
        # inputs' per-row materialization, the vectorized join pays per-row
        # vector evaluation over the raw columns instead.
        left_rows = est.estimate(node.left)
        right_rows = est.estimate(node.right)
        out = est.estimate(node)
        total = est.table_rows(col_join.left_name) + est.table_rows(
            col_join.right_name
        )
        candidates = []
        if index_candidate is not None:
            op, cost, plan = index_candidate
            candidates.append((op, self._input_cost(node.left) + cost, plan))
        candidates.append(
            (
                "ColumnarHashJoin",
                total * _C_VEC
                + (left_rows + right_rows) * _C_PROBE
                + out * _C_ROW,
                col_join,
            )
        )
        candidates.append(
            (
                "HashJoin",
                self._input_cost(node.left)
                + self._input_cost(node.right)
                + right_rows * _C_ROW
                + left_rows * (_C_PROBE + _C_ROW)
                + out * _C_ROW,
                hash_join,
            )
        )
        return self._choose(f"join({col_join.right_name})", candidates)

    def _columnar_join(
        self, node: Join, left_keys, right_keys, residual, fallback
    ) -> ColumnarHashJoin | None:
        """A :class:`ColumnarHashJoin` for ``node``, or ``None`` when the
        join kind, either side's shape, any key/predicate/residual
        expression, or the statistics threshold rules it out."""
        if node.kind not in ("inner", "left"):
            return None
        left_side = self._vector_side(node.left, left_keys)
        right_side = self._vector_side(node.right, right_keys)
        if left_side is None or right_side is None:
            return None
        _, lalias, lcolumns, _ = left_side
        _, ralias, rcolumns, _ = right_side
        lcols, rcols = set(lcolumns), set(rcolumns)
        if residual is not None and not supported_join_expr(
            residual, lalias, lcols, ralias, rcols
        ):
            return None
        if self.columnar == "force":
            min_rows = 0
        else:
            total = self.estimator.table_rows(
                left_side[0]
            ) + self.estimator.table_rows(right_side[0])
            if total < COLUMNAR_MIN_ROWS:
                return None
            min_rows = COLUMNAR_MIN_ROWS
        layout = residual_layout(residual, lalias, lcols, ralias, rcols)
        return ColumnarHashJoin(
            node,
            left_side,
            right_side,
            left_keys,
            right_keys,
            residual,
            layout,
            fallback,
            min_rows,
        )

    def _columnar_semi(
        self, node: Select, others, build_rel, outer_keys, inner_keys, negated,
        fallback,
    ) -> ColumnarSemiJoin | None:
        """A :class:`ColumnarSemiJoin` for a decorrelated EXISTS, or
        ``None`` when either side's shape, any key expression, or the
        statistics threshold rules it out."""
        if self.columnar == "off":
            return None
        child_rel = (
            node.child if not others else Select(node.child, conjoin(*others))
        )
        child_side = self._vector_side(child_rel, outer_keys)
        build_side = self._vector_side(build_rel, inner_keys)
        if child_side is None or build_side is None:
            return None
        if self.columnar == "force":
            min_rows = 0
        else:
            total = self.estimator.table_rows(
                child_side[0]
            ) + self.estimator.table_rows(build_side[0])
            if total < COLUMNAR_MIN_ROWS:
                return None
            min_rows = COLUMNAR_MIN_ROWS
        return ColumnarSemiJoin(
            child_side,
            build_side,
            outer_keys,
            inner_keys,
            negated,
            fallback,
            min_rows,
        )
