"""Logical→physical plan lowering with cost-based physical selection.

The :class:`Planner` turns a relational algebra tree into a tree of
:mod:`repro.db.physical` operators.  Every lowering decision here is
*conservative*: an optimization is chosen only when static analysis over
exact scope-name sets proves the optimized operator resolves every column
reference to the same value the reference evaluator would, under any outer
row.  Whenever that proof fails — inexact scopes, suffix-fallback column
lookups, expressions hiding subqueries — the planner emits the general
operator that mirrors the reference evaluator line for line.

Among the alternatives that *do* pass the soundness proof, the planner
applies no fixed heuristics: each choice point costs its candidates from
observed table statistics (:mod:`repro.db.stats` — row counts, NDV,
histograms) and :meth:`Planner._choose` keeps the cheapest.  Ties keep the
first candidate listed, which encodes the pre-cost preference order.  No
candidate has children to cost, so there is no plan search beyond that
``min``.  Join
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
  :class:`~repro.db.columnar.ColumnarPipeline`, at any table size —
  except point predicates an index can answer, which the estimator keeps
  on the probe path, and heads whose filter an index probe answers more
  cheaply, which run row-at-a-time over the :class:`IndexLookup`.
* ``⋈`` (inner/left) with extractable equality keys →
  :class:`~repro.db.columnar.ColumnarHashJoin` when both inputs are
  vectorizable scan shapes, else :class:`HashJoin`; or
  :class:`IndexNLJoin` when the right side is a base table with an
  explicitly registered index on the join column and the estimated probe
  cost beats the hash build.
* correlated semi/anti joins → :class:`~repro.db.columnar.ColumnarSemiJoin`
  when both sides are vectorizable scans, else :class:`HashSemiJoin`
  (uncorrelated ``EXISTS`` always stays row: its build short-circuits
  after one row).
* ``τ`` under ``LIMIT`` → :class:`TopN` (bounded heap).
* Everything else → streaming counterparts of the reference operators.

Where a columnar candidate exists, the only row alternatives costed beside
it are index probes: any row operator that scans the table pays per-row
materialization the vectorized scan skips, so it could never win.  Row
operators remain for ``columnar="off"``, non-scan inputs, ``LIMIT``'s early
exit, unsupported expressions, and the columnar joins' unhashable-key
fallback.  The columnar mode is read where it acts: ``"off"`` where a
columnar candidate would be built (:meth:`Planner._vector_side`), and
``"force"`` where a winner is picked (:meth:`Planner._choose`).

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
    walk_relational,
    walk_scalar,
)
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
    foldable,
    scan_layout,
)
from .stats import CardinalityEstimator

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

#: Point-predicate guard: a selection an index can answer keeps the probe
#: path (no columnar candidate) when the estimator expects fewer output
#: rows than this — an index-vs-scan policy a skewed cost constant must
#: not override.
_POINT_ROWS = 64


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


def _is_star(item) -> bool:
    return isinstance(item.expr, Col) and item.expr.name == "*"


def _plain(names) -> frozenset[str]:
    """The names without a "." — what a client receives of a row."""
    return frozenset(name for name in names if "." not in name)


def _rel_exprs(node: RelExpr) -> list[ScalarExpr]:
    """The scalar expressions one relational node evaluates itself."""
    if isinstance(node, Select):
        return [node.pred]
    if isinstance(node, Project):
        return [item.expr for item in node.items if not _is_star(item)]
    if isinstance(node, Join):
        return [] if node.pred is None else [node.pred]
    if isinstance(node, Aggregate):
        args = [item.call.arg for item in node.aggs if item.call.arg is not None]
        return [*node.group_by, *args]
    if isinstance(node, Sort):
        return [key.expr for key in node.keys]
    return []


def _deep_cols(expr: ScalarExpr):
    """Every column reference of ``expr``, those of its subqueries (which
    may resolve against the row the subquery runs under) included."""
    for node in walk_scalar(expr):
        if isinstance(node, Col):
            yield node
        elif isinstance(node, (ExistsExpr, ScalarSubquery)):
            for rel in walk_relational(node.query):
                for inner in _rel_exprs(rel):
                    yield from _deep_cols(inner)


def reads(exprs, scope: frozenset[str]) -> frozenset[str]:
    """The names of ``scope`` the evaluator's column lookup may consult
    while evaluating ``exprs`` against a row of ``scope``.

    The lookup tries a reference's qualified name, then its bare name, then
    — for a bare reference — the one name ending in ``.name``.  A row that
    keeps every candidate this returns resolves each reference exactly as
    the full row does (same value, same ambiguity error), whatever outer
    row it is merged with."""
    names: set[str] = set()
    for expr in exprs:
        for col in _deep_cols(expr):
            if col.qualifier:
                names.update({f"{col.qualifier}.{col.name}", col.name} & scope)
            else:
                suffix = "." + col.name
                names.update(
                    n for n in scope if n == col.name or n.endswith(suffix)
                )
    return frozenset(names)


def scope_names(
    node: RelExpr, catalog: Catalog, exact: bool = True
) -> frozenset[str] | None:
    """The *exact* set of row keys ``node`` produces, or ``None`` if it
    cannot be determined statically.

    Exactness is what makes side-classification sound: a column reference
    resolves directly (before the evaluator's suffix-fallback) if and only
    if its name is in this set.  With ``exact`` off the answer is every
    name a row may hold instead, never ``None``: padded left-join and
    OUTER APPLY rows count (an apply holds its left and its right names),
    and a table the catalog does not know (whose scan raises) holds none.
    """
    if isinstance(node, Table):
        if node.name not in catalog:
            return None if exact else frozenset()
        columns = catalog.get(node.name).column_names()
        return frozenset(out for out, _ in scan_layout(node.alias or node.name, columns))
    if isinstance(node, Aggregate):
        return frozenset(_output_names_best_effort(node))
    if isinstance(node, (Join, OuterApply)):
        if exact and isinstance(node, OuterApply):
            return None
        left = scope_names(node.left, catalog, exact)
        right = scope_names(node.right, catalog, exact)
        if left is None or right is None:
            return None
        if not exact and (isinstance(node, OuterApply) or node.kind == "left"):
            right |= frozenset(_output_names_best_effort(node.right, catalog))
        return left | right
    if not isinstance(node, (Select, Sort, Distinct, Limit, Alias, Project)):
        return None if exact else frozenset()
    child = scope_names(node.child, catalog, exact)
    if child is None or isinstance(node, (Select, Sort, Distinct, Limit)):
        return child
    if isinstance(node, Alias):
        return child | frozenset(f"{node.name}.{c}" for c in _plain(child))
    # Qualified source columns always pass through the projection.
    star = any(_is_star(item) for item in node.items)
    return frozenset(
        item.output_name for item in node.items if not _is_star(item)
    ) | frozenset(c for c in child if star or "." in c)


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
    ``"auto"`` (columnar wherever supported, costed against index
    probes), ``"off"`` (row operators only), or ``"force"`` (columnar
    wherever structurally supported — used by differential tests and
    benchmarks to pin the engine).  The estimator reads slot values from
    ``bindings`` (see :meth:`Database.plan`).
    """

    def __init__(self, db: Database, columnar: str | None = None, bindings=None):
        self.db = db
        self.catalog = db.catalog
        self.columnar = columnar if columnar is not None else db.columnar_mode
        self.estimator = CardinalityEstimator(db, bindings)
        self._choices: list[dict] = []
        #: While lowering an OUTER APPLY's right side: the names every
        #: outer row it runs under is guaranteed to carry.  ``None``
        #: elsewhere — the outer scope is unknown.
        self._outer_scope: frozenset[str] | None = None

    # ------------------------------------------------------------------

    def lower(self, node: RelExpr) -> PhysicalOp:
        """Lower ``node`` to a plan whose rows hold its plain names only:
        the client's view of a result, and all that an EXISTS or a scalar
        subquery (planned here too) reads of one."""
        plan = self._lower(node, _plain(self._scope(node)))
        # Search-size breadcrumbs for tests and EXPLAIN-style introspection.
        self.db.last_plan_search = {
            "groups": len(self._choices),
            "alternatives": sum(1 + len(c["rejected"]) for c in self._choices),
            "choices": self._choices,
        }
        return plan

    def _choose(self, label: str, candidates) -> PhysicalOp:
        """Return the winning plan of one choice point.

        ``candidates`` is ``[(op_name, cost, plan), ...]``; the first of
        least cost wins, so ties keep the listed preference order.  Under
        ``columnar="force"`` the first columnar candidate wins whatever it
        costs.

        Each decision leaves a breadcrumb in ``last_plan_search["choices"]``
        with the rejected alternatives' costs and the winner's margin (how
        much cheaper the winner was than the best rejected candidate), so
        ``explain()`` can show *why* an operator was picked."""
        best = min(candidates, key=lambda candidate: candidate[1])
        if self.columnar == "force":
            best = next((c for c in candidates if c[0].startswith("Columnar")), best)
        op, cost, plan = best
        rejected = [{"op": o, "cost": c} for o, c, p in candidates if p is not plan]
        self._choices.append(
            {
                "label": label,
                "chosen": op,
                "cost": cost,
                "rejected": rejected,
                "margin": min(r["cost"] for r in rejected) - cost if rejected else None,
            }
        )
        return plan

    # ------------------------------------------------------------------

    def _lower(
        self, node: RelExpr, need: frozenset[str], allow_columnar: bool = True
    ) -> PhysicalOp:
        """Lower ``node`` to a plan whose rows hold the names of ``need``
        that the reference's rows hold, and no others.

        Each operator asks its child for the names it passes on plus the
        candidates (:func:`reads`) of every column its expressions look
        up; an operator whose rows could then hold more than ``need`` is
        cut to it (:meth:`_cut`)."""
        if isinstance(node, Table):
            return SeqScan(node.name, node.alias, self._layout(node, need))
        if isinstance(node, Select):
            return self._lower_select(node, need, allow_columnar)
        scope = self._scope(node.child) if hasattr(node, "child") else None
        if isinstance(node, Project):
            star = any(_is_star(item) for item in node.items)
            passed = frozenset(n for n in need & scope if star or "." in n)
            child_need = reads(_rel_exprs(node), scope) | passed
            produced = frozenset(
                item.output_name for item in node.items if not _is_star(item)
            ) | (child_need if star else passed)
            return self._lower_head(
                node.child, ("project", node), [item.expr for item in node.items],
                node,
                lambda child: self._cut(
                    ProjectOp(child, node, None if star else passed), produced, need
                ),
                allow_columnar, need, child_need,
            )
        if isinstance(node, Join):
            return self._lower_join(node, need, allow_columnar)
        if isinstance(node, Aggregate):
            exprs = _rel_exprs(node)
            produced = frozenset(_output_names_best_effort(node))
            return self._lower_head(
                node.child, ("aggregate", node), exprs if foldable(node) else None,
                node, lambda child: self._cut(HashAggregate(child, node), produced, need),
                allow_columnar, need, reads(exprs, scope),
            )
        if isinstance(node, Sort) or (
            isinstance(node, Limit) and isinstance(node.child, Sort)
        ):
            sort = node if isinstance(node, Sort) else node.child  # τ, or top-N
            keys = _rel_exprs(sort)
            child_need = need | reads(keys, self._scope(sort.child))

            def row_head(child):
                op = SortOp(child, sort) if sort is node else TopN(child, sort, node.count)
                return self._cut(op, child_need, need)

            head = ("sort", sort) if sort is node else ("topn", (sort, node.count))
            return self._lower_head(
                sort.child, head, keys, node, row_head, allow_columnar, need, child_need
            )
        if isinstance(node, Distinct):
            child_need = need | _plain(scope)
            child = self._lower(node.child, child_need)
            if isinstance(child, ColumnarPipeline) and child.head_kind == "project":
                child.distinct = True  # δ runs inside the pipeline
            else:
                child = DistinctOp(child)
            return self._cut(child, child_need, need)
        if isinstance(node, Limit):
            # A columnar pipeline consumes its whole input before emitting,
            # which would defeat LIMIT's early exit — unless the child is
            # an aggregate, which must consume everything anyway.
            allow = isinstance(node.child, Aggregate)
            return LimitOp(self._lower(node.child, need, allow), node.count)
        if isinstance(node, OuterApply):
            # The right side runs under each left row: keep every name its
            # lookups (subqueries included) may consult there.
            left_scope = self._scope(node.left)
            inner = [e for rel in walk_relational(node.right) for e in _rel_exprs(rel)]
            left_need = (need & left_scope) | reads(inner, left_scope)
            left = self._lower(node.left, left_need)
            # Every operator on the right passes its outer row through, so
            # each sees the left row merged over the apply's own outer row
            # (the enclosing apply's scope when nested).
            saved = self._outer_scope
            self._outer_scope = guaranteed_names(node.left, self.catalog) | (
                saved or frozenset()
            )
            try:
                right = self._lower(node.right, need & self._scope(node.right))
            finally:
                self._outer_scope = saved
            return ApplyOp(left, right, node, need, not left_need <= need)
        if isinstance(node, Alias):
            prefix = node.name + "."
            requalified = {c: prefix + c for c in _plain(scope) if prefix + c in need}
            child_need = (need & scope) | frozenset(requalified)
            keep = None if child_need <= need else need
            return AliasOp(
                self._lower(node.child, child_need), node.name, requalified, keep
            )
        raise EngineError(f"cannot evaluate {type(node).__name__}")

    @staticmethod
    def _cut(op: PhysicalOp, produced: frozenset[str], need: frozenset[str]) -> PhysicalOp:
        """Cut ``op``'s rows to ``need`` when they may hold names beyond it
        (``produced``: every name they may hold)."""
        if not produced <= need:
            op.trim = need
        return op

    def _scope(self, node: RelExpr) -> frozenset[str]:
        return scope_names(node, self.catalog, exact=False)

    def _layout(self, node: Table, need: frozenset[str]):
        """What a scan of ``node`` emits of each row to hold ``need``."""
        if node.name not in self.catalog:
            return None  # the scan raises the unknown table
        columns = self.catalog.get(node.name).column_names()
        return scan_layout(node.alias or node.name, columns, need)

    # ------------------------------------------------------------------
    # Selection

    def _lower_select(
        self, node: Select, need: frozenset[str], allow_columnar: bool = True
    ) -> PhysicalOp:
        conjuncts = split_conjuncts(node.pred)
        # The row operators below pass on the names the predicate read.
        child_need = need | reads([node.pred], self._scope(node.child))

        exists, negated, others = self._find_exists_conjunct(conjuncts)
        if exists is not None:
            semi = self._try_semi_join(node, exists, negated, others, need, child_need)
            if semi is not None:
                return semi

        table = node.child
        filtered = FilterOp(self._lower(table, child_need, allow_columnar), node.pred)
        filtered = self._cut(filtered, child_need, need)
        if not (isinstance(table, Table) and table.name in self.catalog):
            return filtered

        est = self.estimator
        row_count = est.table_rows(table.name)
        candidates = []

        lookup, probe_rows = self._best_index_lookup(node, conjuncts, need)
        if lookup is not None:
            candidates.append(
                ("IndexLookup", _C_PROBE + probe_rows * (_C_ROW + _C_EVAL), lookup)
            )

        side = self._vector_side(node, ()) if allow_columnar else None
        if side is not None:
            out = row_count * est.selectivity(node.pred, table.name)
            # Point-predicate guard: when an index probe exists and the
            # estimator says the predicate keeps only a handful of rows,
            # vectorizing the whole scan cannot beat the O(1) probe —
            # drop the columnar candidate instead of letting a skewed
            # cost constant pick it (``force`` keeps it).
            if lookup is not None and out < _POINT_ROWS and self.columnar != "force":
                side = None
        if side is not None:
            pipeline = ColumnarPipeline(*side, ("filter", None), (), need)
            candidates.append(
                ("Columnar", row_count * _C_VEC + out * _C_ROW, pipeline)
            )
        else:
            # A filtered row scan is costed only where no vectorized scan
            # is on offer: it pays per-row materialization the pipeline
            # skips, so beside one it could never win.
            candidates.append(("Filter", row_count * (_C_ROW + _C_EVAL), filtered))
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

    def _try_semi_join(self, node, exists, negated, others, need, child_need):
        """Lower ``σ[... AND EXISTS(Q)]`` to a hash semi/anti-join.

        Returns ``None`` (caller falls back to a per-row filter) unless the
        inner query, stripped of its correlation equality conjuncts, is
        provably closed — i.e. evaluates to the same rows under any outer
        scope.  The build side holds only what its keys read; the child
        keeps what the whole predicate reads, for the per-row fallback."""
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

        child_plan = self._filtered_child(node, others, child_need)
        row_semi = HashSemiJoin(
            child_plan,
            self._lower(build_rel, reads(inner_keys, self._scope(build_rel))),
            outer_keys,
            inner_keys,
            negated,
            fallback=FilterOp(child_plan, ExistsExpr(exists.query, negated)),
        )
        self._cut(row_semi, child_need, need)
        # The keyless (uncorrelated) case must stay on the row operator:
        # its build probes emptiness with a single row, an early exit a
        # vectorized build would lose (and whose error behavior it would
        # change by evaluating the build predicate on every row).
        if not inner_keys:
            return row_semi
        col_semi = self._columnar_semi(
            node, others, build_rel, outer_keys, inner_keys, negated, row_semi, need
        )
        return row_semi if col_semi is None else col_semi

    def _filtered_child(self, node: Select, others, need) -> PhysicalOp:
        """Lower the Select's child with the non-EXISTS conjuncts applied
        (re-entering selection lowering so point lookups still trigger)."""
        if not others:
            return self._lower(node.child, need)
        return self._lower_select(Select(node.child, conjoin(*others)), need)

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
        children = rel.children()
        scopes = [scope_names(child, self.catalog) for child in children]
        if isinstance(rel, OuterApply) or None in scopes:
            return False  # correlated by construction, or an unknown scope
        return self._scalars_closed(_rel_exprs(rel), frozenset().union(*scopes)) and all(
            self._closed(child) for child in children
        )

    def _scalars_closed(self, exprs, scope: frozenset[str]) -> bool:
        for expr in exprs:
            if _has_subquery(expr):
                return False
            if not all(_resolves_strictly(c, scope) for c in _cols_of(expr)):
                return False
        return True

    # ------------------------------------------------------------------
    # Point lookups

    def _best_index_lookup(self, node: Select, conjuncts, need):
        """Build ``σ[col = expr AND ...](T)`` as a hash-index point lookup.

        Applies when a probed column is part of the table's declared key
        (auto-indexed on first use) or carries a registered index, and the
        probe expression resolves the same with or without the table's row
        merged in (:func:`_outer_side_safe` against the known outer scope).
        A probe correlated with an OUTER APPLY's outer scope earns an
        auto-built index on any column.  Among several indexable
        conjuncts, the one with the highest NDV (fewest expected matches) is
        probed.  The lookup's rows hold ``need``.  Returns
        ``(plan, estimated_rows)`` or ``(None, None)``."""
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
        # The probe reads no column of the table: rows hold what the
        # residual reads; the fallback scan, what the whole predicate reads.
        build = need | reads(split_conjuncts(residual), names)
        scanned = need | reads([node.pred], names)
        fallback = FilterOp(SeqScan(table.name, table.alias, self._layout(table, scanned)), node.pred)
        lookup = IndexLookup(
            table.name, col.name, probe, residual,
            self._cut(fallback, scanned, build), self._layout(table, build),
        )
        return self._cut(lookup, build, need), estimated

    # ------------------------------------------------------------------
    # Heads over a filtered scan, and the one vectorizability test

    def _lower_head(
        self, child, head, head_exprs, out_node, row_head, allow_columnar, need,
        child_need,
    ):
        """Lower a π/γ/τ/top-N ``head`` over ``child``.

        When ``child`` is a vectorizable ``[σ] over base table``, one
        columnar pipeline is costed against the same head run row-at-a-time
        over an index probe of the scan's filter — the one row alternative
        that can beat a vectorized scan.  Otherwise ``row_head`` wraps the
        generic lowering of ``child`` in the head's row operator.
        ``head_exprs`` is ``None`` when the head itself has no vector form
        (a DISTINCT or unfoldable aggregate); ``out_node`` is the tree whose
        estimate is the head's output.  The head's rows hold ``need``; a
        row head asks its child for ``child_need``."""
        side = None
        if allow_columnar and head_exprs is not None:
            side = self._vector_side(child, head_exprs)
        if side is None:
            return row_head(self._lower(child, child_need, allow_columnar))
        name, _, _, pred = side
        est = self.estimator
        out = est.estimate(out_node)
        head_evals = est.estimate(child) * len(head_exprs)
        col_scan = 0.0 if pred is None else est.table_rows(name) * _C_VEC
        pipeline = ColumnarPipeline(*side, head, head_exprs, need)
        if head[0] == "aggregate":
            self._cut(pipeline, frozenset(_output_names_best_effort(out_node)), need)
        candidates = [
            ("Columnar", col_scan + head_evals * _C_VEC + out * _C_ROW, pipeline)
        ]
        if isinstance(child, Select):
            lookup, probe_rows = self._best_index_lookup(
                child, split_conjuncts(pred), child_need
            )
            if lookup is not None:
                plan = row_head(lookup)
                probe = _C_PROBE + probe_rows * (_C_ROW + _C_EVAL)
                candidates.append(
                    (plan.label, probe + head_evals * _C_EVAL + out * _C_ROW, plan)
                )
        return self._choose(f"{head[0]}({name})", candidates)

    def _vector_side(self, rel: RelExpr, exprs):
        """Decompose ``rel`` as a vectorizable (possibly filtered) scan —
        the one test every columnar candidate passes.

        Returns the ``(table, alias, columns, pred)`` side descriptor the
        columnar operators consume, or ``None`` under ``columnar="off"`` or
        when the shape or any expression (the scan predicate plus ``exprs``,
        the head or join-key expressions that must evaluate against this
        side alone) is outside the vector subset."""
        if self.columnar == "off":
            return None
        table, pred = (rel.child, rel.pred) if isinstance(rel, Select) else (rel, None)
        if not (isinstance(table, Table) and table.name in self.catalog):
            return None
        alias = table.alias or table.name
        columns = self.catalog.get(table.name).column_names()
        column_set = set(columns)
        checks = list(exprs) if pred is None else [*exprs, pred]
        if not all(supported_expr(e, alias, column_set) for e in checks):
            return None
        return (table.name, alias, tuple(columns), pred)

    # ------------------------------------------------------------------
    # Joins

    def _lower_join(
        self, node: Join, need: frozenset[str], allow_columnar: bool = True
    ) -> PhysicalOp:
        scope = self._scope(node.left) | self._scope(node.right)
        # Joined rows hold what the predicate reads; the children also
        # give what each key expression reads.
        wanted = need | reads(_rel_exprs(node), scope)
        left_plan = self._lower(node.left, wanted & self._scope(node.left))
        right_plan = self._lower(node.right, wanted & self._scope(node.right))

        def cut(op):
            return self._cut(op, op.keep, need)

        if node.pred is None:
            return cut(NestedLoopJoin(left_plan, right_plan, node, wanted))

        left_names = scope_names(node.left, self.catalog)
        right_names = scope_names(node.right, self.catalog)
        if left_names is None or right_names is None:
            return cut(NestedLoopJoin(left_plan, right_plan, node, wanted))

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
            return cut(NestedLoopJoin(left_plan, right_plan, node, wanted))

        residual_pred = conjoin(*residual)
        hash_join = cut(
            HashJoin(
                left_plan, right_plan, node, left_keys, right_keys, residual_pred, wanted
            )
        )

        col_join = None
        if allow_columnar:
            col_join = self._columnar_join(
                node, left_keys, right_keys, residual_pred, hash_join, need
            )

        # Index nested-loop only on explicit opt-in (create_index): for a
        # one-shot join the hash build is at least as good, but a
        # registered index persists across queries.  Among the
        # order-preserving strategies, estimated cost decides.
        right_key = right_keys[0]
        indexed = (
            len(right_keys) == 1
            and isinstance(node.right, Table)
            and isinstance(right_key, Col)
            and right_key.name
            in set(self.catalog.get(node.right.name).column_names())
            and self.db.has_index(node.right.name, right_key.name)
        )
        if col_join is None and not indexed:
            return hash_join

        est = self.estimator
        left_rows = est.estimate(node.left)
        right_rows = est.estimate(node.right)
        candidates = []
        if indexed:
            ndv = est.ndv(node.right.name, right_key.name) or 1
            matches = right_rows / max(ndv, 1)
            inl = cut(
                IndexNLJoin(
                    left_plan,
                    node,
                    node.right.name,
                    right_key.name,
                    left_keys[0],
                    residual_pred,
                    hash_join,
                    self._layout(node.right, wanted & self._scope(node.right)),
                    need | reads(split_conjuncts(residual_pred), scope),
                )
            )
            cost = left_rows * (_C_PROBE + matches * _C_ROW)
            if col_join is not None:
                # The columnar join replaces the child scans too, so the
                # index join also pays its left scan's per-row
                # materialization (and filter evaluation).
                scan = _C_ROW + (_C_EVAL if col_join.left_pred is not None else 0.0)
                cost += est.table_rows(col_join.left_name) * scan
            candidates.append(("IndexNLJoin", cost, inl))

        if col_join is None:
            candidates.append(
                (
                    "HashJoin",
                    right_rows * _C_ROW + left_rows * (_C_PROBE + _C_ROW),
                    hash_join,
                )
            )
            return self._choose(f"join({node.right.name})", candidates)
        # The vectorized join pays per-row vector evaluation over the raw
        # columns; a row hash join over the same scans would pay per-row
        # materialization on top, so it is never a candidate beside it.
        total = est.table_rows(col_join.left_name) + est.table_rows(
            col_join.right_name
        )
        candidates.append(
            (
                "ColumnarHashJoin",
                total * _C_VEC
                + (left_rows + right_rows) * _C_PROBE
                + est.estimate(node) * _C_ROW,
                col_join,
            )
        )
        return self._choose(f"join({col_join.right_name})", candidates)

    def _columnar_join(
        self, node: Join, left_keys, right_keys, residual, fallback, need
    ) -> ColumnarHashJoin | None:
        """A :class:`ColumnarHashJoin` for ``node`` emitting ``need``, or
        ``None`` when the join kind, either side's shape, or any
        key/predicate/residual expression rules it out."""
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
            need,
        )

    def _columnar_semi(
        self, node: Select, others, build_rel, outer_keys, inner_keys, negated,
        fallback, need,
    ) -> ColumnarSemiJoin | None:
        """A :class:`ColumnarSemiJoin` for a decorrelated EXISTS emitting
        ``need``, or ``None`` when either side's shape or any key
        expression rules it out."""
        child_rel = (
            node.child if not others else Select(node.child, conjoin(*others))
        )
        child_side = self._vector_side(child_rel, outer_keys)
        build_side = self._vector_side(build_rel, inner_keys)
        if child_side is None or build_side is None:
            return None
        return ColumnarSemiJoin(
            child_side, build_side, outer_keys, inner_keys, negated, fallback, need
        )
