"""In-memory relational engine evaluating extended relational algebra.

This is the database substrate for the reproduction: the paper ran against
MySQL 5.5; we evaluate the same algebra the extractor produces directly over
in-memory tables, with SQL NULL semantics, stable sorts, grouped
aggregation, DISTINCT, LIMIT, and OUTER APPLY.

Two execution engines share this module's :class:`Database`:

* ``reference`` — :class:`ReferenceEvaluator`, the original tree-walking
  interpreter.  Deliberately naive (nested-loop joins, per-row subquery
  re-evaluation) but obviously correct; it is the oracle every optimization
  is differentially checked against.
* ``planned`` — the physical planning layer in :mod:`repro.db.planner` /
  :mod:`repro.db.physical`: hash joins, hash semi/anti-joins, Top-N, index
  lookups, and streaming pipelines.  Must produce *identical* rows (values
  and order) to the reference evaluator on every query.

``engine="both"`` runs both and raises :class:`EngineDivergenceError` on
any mismatch — the differential safety net used by the fuzzer.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any

from ..algebra import (
    AggCall,
    Aggregate,
    Alias,
    BinOp,
    CaseWhen,
    Catalog,
    Col,
    Distinct,
    ExistsExpr,
    Func,
    Join,
    Limit,
    Lit,
    OuterApply,
    Param,
    Project,
    RelExpr,
    ScalarExpr,
    ScalarSubquery,
    Select,
    Sort,
    Table,
    UnOp,
)
from .types import (
    Row,
    descending_key,
    is_truthy,
    nulls_last_key,
    sql_and,
    sql_avg,
    sql_compare,
    sql_not,
    sql_or,
    to_display,
)

#: Engines `Database.execute` understands.
ENGINES = ("planned", "reference", "both")

#: Plan-cache size bound: beyond this many plans (variants too) it resets.
_PLAN_CACHE_LIMIT = 256


class EngineError(Exception):
    """Raised on evaluation failures (unknown table/column/function)."""


class UnknownTableError(EngineError, KeyError):
    """Raised by every :class:`Database` entry point given a table name it
    does not know: an :class:`EngineError` for engine callers, and the
    catalog's ``KeyError`` for callers of the write path."""

    __str__ = Exception.__str__


class EngineDivergenceError(EngineError):
    """Raised by ``engine="both"`` when planned and reference rows differ."""


class Database:
    """A named collection of in-memory tables plus their catalog."""

    #: Engine used when ``execute`` is called without an explicit one.
    default_engine = "planned"

    def __init__(self, catalog: Catalog | None = None, default_engine: str | None = None):
        self.catalog = catalog or Catalog()
        self._tables: dict[str, list[Row]] = {
            name: [] for name in self.catalog.tables
        }
        #: Custom (user-defined) aggregates: name → fn(values) -> value.
        #: The paper's Section 5.2 fallback when a folding function has no
        #: built-in SQL aggregate.
        self.aggregates: dict[str, object] = {}
        if default_engine is not None:
            self.default_engine = default_engine
        #: Registered hash indexes: (table, column) → value → rows, or
        #: ``None`` while dirty/unbuilt (rebuilt lazily on next lookup).
        self._indexes: dict[tuple[str, str], dict | None] = {}
        #: (table, column) pairs whose values turned out unhashable.
        self._unindexable: set[tuple[str, str]] = set()
        #: Physical plan cache keyed on the (hashable) algebra tree; each
        #: entry stores ``(stats_epoch, variants)`` so a plan chosen for one
        #: data distribution is never reused after the distribution
        #: changes.  Each ``(plan, search, reads)`` variant restores
        #: ``last_plan_search`` on a hit, and serves only slot values its
        #: estimator ``reads`` still hold for.
        self._plan_cache: dict[RelExpr, Any] = {}
        self._plan_variants = 0
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: Lookups that found the tree at the current epoch but re-planned
        #: because no variant's estimates held for the new slot values.
        self.plan_cache_replans = 0
        #: Cached column arrays per table (columnar execution reads these).
        self._columns: dict[str, dict[str, list]] = {}
        #: Cached statistics per table (built lazily from the column cache).
        self._table_stats: dict[str, Any] = {}
        #: Bumped by every invalidation; keys the plan cache and tells any
        #: consumer of :meth:`stats` whether its snapshot is still current.
        self._stats_epoch = 0
        self._columnar_mode = "auto"
        #: Search breadcrumbs from the most recent :meth:`plan` call —
        #: memo size, alternatives explored, and per-group cost margins.
        self.last_plan_search: dict | None = None

    def register_aggregate(self, name: str, fn) -> None:
        """Register a user-defined aggregate (and teach the SQL parser
        about it so generated SQL round-trips)."""
        from ..sqlparse import register_aggregate_name

        self.aggregates[name.lower()] = fn
        register_aggregate_name(name)

    # ------------------------------------------------------------------
    # DDL / DML

    def create_table(
        self, name: str, columns: list[str], key: tuple[str, ...] = ()
    ) -> None:
        """Create an empty table and register it in the catalog."""
        self.catalog.define(name, columns, key)
        self._tables[name.lower()] = []
        self._invalidate(name)
        # New tables can change name resolution and index choices.
        self._clear_plans()

    def insert(self, name: str, row: Row) -> None:
        """Insert one row: a batch of one (see :meth:`insert_many`)."""
        self.insert_many(name, [row])

    def insert_many(self, name: str, rows: list[Row]) -> None:
        """Append ``rows`` as one write batch, the only write path.

        Each stored row has the catalog's columns in catalog order: missing
        columns become NULL and unknown keys are dropped.  A plain ``dict``
        whose keys already are the catalog's columns in order is stored as
        one ``dict(row)`` copy; any other row is re-keyed.  The batch is
        all-or-nothing: every stored row is built before the table is
        touched, so a malformed row leaves the table as it was.  A batch
        costs one invalidation; an empty one costs none and keeps the
        cached plans.
        """
        names = self._table(name).column_names()
        layout = tuple(names)
        stored = [
            dict(row) if type(row) is dict and tuple(row) == layout
            else {col: row.get(col) for col in names}
            for row in rows
        ]
        if stored:
            self._tables[name.lower()].extend(stored)
            self._invalidate(name)

    def rows(self, name: str) -> list[Row]:
        """Return the raw rows of a base table (shared, do not mutate)."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    def _table(self, name: str):
        """The catalog's definition of ``name``."""
        try:
            return self.catalog.get(name)
        except KeyError:
            raise UnknownTableError(f"unknown table {name!r}") from None

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def clear(self, name: str) -> None:
        """Empty a table the catalog knows (an unknown name raises
        :class:`UnknownTableError`, as every entry point does)."""
        self._table(name)
        self._tables[name.lower()] = []
        self._invalidate(name)
        self._unindexable = {
            key for key in self._unindexable if key[0] != name.lower()
        }

    # ------------------------------------------------------------------
    # Hash indexes

    def create_index(self, name: str, column: str) -> None:
        """Register a hash index on ``table.column`` (built lazily).

        The planner uses registered indexes for index-nested-loop join
        plans and point lookups; indexes on declared key columns are also
        auto-registered the first time a point lookup needs one.
        """
        table = self._table(name)
        if not table.has_column(column):
            raise EngineError(f"no column {column!r} on table {name!r}")
        self._indexes.setdefault((name.lower(), column), None)
        # Index availability changes plan choices.
        self._clear_plans()

    def has_index(self, name: str, column: str) -> bool:
        return (name.lower(), column) in self._indexes

    def index_on(self, name: str, column: str, auto: bool = False) -> dict | None:
        """Return the value→rows mapping for an index, building it lazily.

        With ``auto=True`` the index is registered on first use (the lazy
        auto-indexing path for equality lookups).  Returns ``None`` when no
        index is registered (and ``auto`` is off) or when the column's
        values are unhashable — callers must then fall back to a scan.
        """
        key = (name.lower(), column)
        if key in self._unindexable:
            return None
        if key not in self._indexes:
            if not auto:
                return None
            self._indexes[key] = None
        index = self._indexes[key]
        if index is None:
            index = {}
            try:
                for row in self.rows(name):
                    value = row.get(column)
                    if value is None:
                        continue  # NULL never matches an equality probe
                    index.setdefault(value, []).append(row)
            except TypeError:
                self._unindexable.add(key)
                return None
            self._indexes[key] = index
        return index

    def _invalidate(self, name: str) -> None:
        """Mark every index of ``name`` dirty (rebuilt on next lookup) and
        drop the table's cached column arrays and statistics, once per write
        batch.  Cached arrays are dropped, never changed in place, so whoever
        still holds them reads its own epoch's data.  The epoch bump retires
        every cached plan chosen under the old statistics."""
        lowered = name.lower()
        for key in self._indexes:
            if key[0] == lowered:
                self._indexes[key] = None
        self._columns.pop(lowered, None)
        self._table_stats.pop(lowered, None)
        self._stats_epoch += 1

    # ------------------------------------------------------------------
    # Columnar storage and statistics

    def columns(self, name: str) -> dict[str, list]:
        """Return ``name``'s rows transposed into column arrays.

        The transposition is cached and invalidated by the same
        dirty-marking that rebuilds hash indexes, so repeated columnar
        executions and statistics builds share one pass over the rows.
        The arrays are shared — callers must not mutate them.
        """
        lowered = name.lower()
        cached = self._columns.get(lowered)
        if cached is not None:
            return cached
        rows = self.rows(name)
        names = (
            self.catalog.get(name).column_names()
            if name in self.catalog
            else sorted({c for row in rows for c in row})
        )
        columns = {column: [row.get(column) for row in rows] for column in names}
        self._columns[lowered] = columns
        return columns

    def stats(self, name: str, sample: int | None = None):
        """Return the :class:`~repro.db.stats.TableStats` for a base table.

        With ``sample=None`` (the default) the cached statistics are
        returned, made under the automatic policy: exact up to
        :data:`~repro.db.stats.STATS_EXACT_MAX` rows, and a reservoir-style
        sample of :data:`~repro.db.stats.STATS_SAMPLE_SIZE` rows above it
        (scaled NDV/NULL estimates, sample histograms).  ``row_count`` is
        exact either way, and each column's statistics are built on its
        first read, so the planner pays only for the columns it costs
        against.
        ``_invalidate`` (one per write batch, clear or create_table) drops
        the cached object; the next call makes a new one from the current
        rows.  An object taken before a write keeps answering for the rows
        it was taken from.

        An explicit ``sample`` bypasses both the cache and the policy and
        builds every column now: ``sample=0`` forces an exact full pass;
        ``sample=k`` draws ``k`` rows (``k >= row count`` degrades to the
        exact build).  Explicit builds are never cached.
        """
        lowered = name.lower()
        if sample is None and lowered in self._table_stats:
            return self._table_stats[lowered]
        if lowered not in self._tables:
            raise UnknownTableError(f"unknown table {name!r}")
        from .stats import STATS_EXACT_MAX, STATS_SAMPLE_SIZE
        from .stats import build_sampled_table_stats as build

        rows = self._tables[lowered]
        table = self.catalog.tables.get(lowered)
        names = table.column_names() if table is not None else None
        if sample is not None:
            stats = build(lowered, rows, names, sample)
            list(stats.columns.values())  # build every column now
            return stats
        auto = STATS_SAMPLE_SIZE if len(rows) > STATS_EXACT_MAX else 0
        stats = self._table_stats[lowered] = build(lowered, rows, names, auto)
        return stats

    @property
    def columnar_mode(self) -> str:
        """Columnar execution policy: ``"auto"`` (columnar wherever
        supported, at any table size, with index probes the only costed
        row alternative), ``"off"`` (always row-at-a-time), or
        ``"force"`` (columnar whenever structurally supported, whatever
        it costs — used by the differential tests)."""
        return self._columnar_mode

    @columnar_mode.setter
    def columnar_mode(self, mode: str) -> None:
        if mode not in ("auto", "off", "force"):
            raise EngineError(f"unknown columnar mode {mode!r}")
        if mode != self._columnar_mode:
            self._columnar_mode = mode
            # Plans embed the mode's lowering choices.
            self._clear_plans()

    # ------------------------------------------------------------------
    # Query evaluation

    def plan(self, query: RelExpr, params: dict[str, Any] | None = None):
        """Return the (cached) physical plan for an algebra tree.

        Entries are keyed by the statistics epoch they were planned under:
        a plan chosen when a table was empty (or differently distributed)
        is re-planned — not reused — after the data changes.  The planner
        estimates with the slot values (``$0``, ...) in ``params``; a plan
        serves other slot values only if every estimate that read a slot
        answers the same, else the tree gets another variant (a re-plan).
        """
        from .planner import Planner
        from .stats import CardinalityEstimator

        entry = self._plan_cache.get(query)
        variants = []
        if entry is not None and entry[0] == self._stats_epoch:
            for plan, search, reads in entry[1]:
                if CardinalityEstimator.reads_hold(reads, params):
                    self.plan_cache_hits += 1
                    self.last_plan_search = search
                    return plan
            variants = entry[1]
            self.plan_cache_replans += 1
        self.plan_cache_misses += 1
        planner = Planner(self, bindings=params)
        plan = planner.lower(query)
        if variants:
            self.last_plan_search["replanned"] = "estimate changed"
        if self._plan_variants >= _PLAN_CACHE_LIMIT:
            self._clear_plans()
            variants = []
        variants.append((plan, self.last_plan_search, tuple(planner.estimator.reads)))
        self._plan_cache[query] = (self._stats_epoch, variants)
        self._plan_variants += 1
        return plan

    def _clear_plans(self) -> None:
        self._plan_cache.clear()
        self._plan_variants = 0

    def execute(
        self,
        query: RelExpr,
        params: dict[str, Any] | None = None,
        engine: str | None = None,
    ) -> list[Row]:
        """Evaluate a relational algebra tree and return the result rows.

        ``engine`` selects the execution engine: ``"planned"`` (physical
        operators), ``"reference"`` (the tree-walking oracle), or
        ``"both"`` (run both, raise :class:`EngineDivergenceError` on any
        mismatch).  Defaults to :attr:`default_engine`.
        """
        rows, _ = self.execute_explained(query, params, engine)
        return rows

    def execute_explained(
        self,
        query: RelExpr,
        params: dict[str, Any] | None = None,
        engine: str | None = None,
    ) -> tuple[list[Row], dict | None]:
        """Like :meth:`execute` but also returns the executed physical
        plan's ``explain()`` tree (``None`` for the reference engine)."""
        engine = engine or self.default_engine
        if engine == "reference":
            return ReferenceEvaluator(self, params or {}).eval_rel(query), None
        if engine not in ENGINES:
            raise EngineError(f"unknown engine {engine!r}")

        from .physical import ExecContext, explain_plan

        plan = self.plan(query, params)
        ctx = ExecContext(self, params or {})
        rows = list(plan.execute(ctx))
        explain = explain_plan(plan, ctx)
        if explain is not None:
            explain["plan_search"] = self.last_plan_search
        if engine == "both":
            reference = ReferenceEvaluator(self, params or {}).eval_rel(query)
            if rows != reference:
                raise EngineDivergenceError(
                    f"planned and reference engines disagree on {query}:\n"
                    f"  planned   ({len(rows)} rows): {rows[:5]!r}...\n"
                    f"  reference ({len(reference)} rows): {reference[:5]!r}..."
                )
            if _plan_uses_columnar(plan):
                # Three-way net: when the plan took the columnar path, also
                # run a row-at-a-time lowering of the same tree so columnar
                # ≡ row ≡ reference all hold.
                from .planner import Planner

                row_plan = Planner(self, columnar="off", bindings=params).lower(query)
                row_rows = list(row_plan.execute(ExecContext(self, params or {})))
                if rows != row_rows:
                    raise EngineDivergenceError(
                        f"columnar and row-at-a-time plans disagree on {query}:\n"
                        f"  columnar ({len(rows)} rows): {rows[:5]!r}...\n"
                        f"  row      ({len(row_rows)} rows): {row_rows[:5]!r}..."
                    )
        return rows, explain

    def explain(self, query: RelExpr, params: dict[str, Any] | None = None) -> dict:
        """Execute ``query`` on the planned engine and return its explain
        tree: one node per physical operator with the rows it produced."""
        _, explain = self.execute_explained(query, params, engine="planned")
        return explain


class ReferenceEvaluator:
    """The slow, obviously-correct tree-walking oracle.

    Every optimized engine is differentially tested against this class;
    keep it simple rather than fast.
    """

    def __init__(self, database: Database, params: dict[str, Any]):
        self._db = database
        self._params = params

    # ------------------------------------------------------------------
    # Relational operators

    def eval_rel(self, node: RelExpr, outer: Row | None = None) -> list[Row]:
        if isinstance(node, Table):
            return self._eval_table(node)
        if isinstance(node, Select):
            child = self.eval_rel(node.child, outer)
            return [
                row
                for row in child
                if is_truthy(self.eval_scalar(node.pred, self._merge(row, outer)))
            ]
        if isinstance(node, Project):
            child = self.eval_rel(node.child, outer)
            return [self._project_row(node, row, outer) for row in child]
        if isinstance(node, Join):
            return self._eval_join(node, outer)
        if isinstance(node, Aggregate):
            return self._eval_aggregate(node, outer)
        if isinstance(node, Sort):
            child = self.eval_rel(node.child, outer)
            for key in reversed(node.keys):
                child = sorted(
                    child,
                    key=lambda row, k=key: self._sort_key(k, self._merge(row, outer)),
                )
            return child
        if isinstance(node, Distinct):
            child = self.eval_rel(node.child, outer)
            seen = set()
            result = []
            fingerprint_columns = _FingerprintColumns()
            for row in child:
                fingerprint = fingerprint_columns.fingerprint(row)
                if fingerprint not in seen:
                    seen.add(fingerprint)
                    result.append(row)
            return result
        if isinstance(node, Limit):
            return self.eval_rel(node.child, outer)[: node.count]
        if isinstance(node, OuterApply):
            return self._eval_outer_apply(node, outer)
        if isinstance(node, Alias):
            child = self.eval_rel(node.child, outer)
            result = []
            for row in child:
                copy = dict(row)
                for column, value in row.items():
                    if "." not in column:
                        copy[f"{node.name}.{column}"] = value
                result.append(copy)
            return result
        raise EngineError(f"cannot evaluate {type(node).__name__}")

    def _eval_table(self, node: Table) -> list[Row]:
        rows = self._db.rows(node.name)
        alias = node.alias or node.name
        result = []
        for row in rows:
            copy = dict(row)
            for column, value in row.items():
                copy[f"{alias}.{column}"] = value
            result.append(copy)
        return result

    def _eval_join(self, node: Join, outer: Row | None) -> list[Row]:
        left_rows = self.eval_rel(node.left, outer)
        right_rows = self.eval_rel(node.right, outer)
        result = []
        for left in left_rows:
            matched = False
            for right in right_rows:
                combined = {**right, **left}
                # Left values win on bare-name collisions; qualified keys of
                # both sides are preserved because they never collide.
                for key, value in right.items():
                    if key not in left:
                        combined[key] = value
                if node.pred is not None:
                    verdict = self.eval_scalar(node.pred, self._merge(combined, outer))
                    if not is_truthy(verdict):
                        continue
                matched = True
                result.append(combined)
            if node.kind == "left" and not matched:
                result.append(_pad_left_row(left, right_rows, node.right, self._db))
        return result

    def _eval_outer_apply(self, node: OuterApply, outer: Row | None) -> list[Row]:
        left_rows = self.eval_rel(node.left, outer)
        result = []
        for left in left_rows:
            scope = self._merge(left, outer)
            inner_rows = self.eval_rel(node.right, scope)
            if inner_rows:
                for inner in inner_rows:
                    combined = dict(left)
                    for key, value in inner.items():
                        if key not in combined:
                            combined[key] = value
                    result.append(combined)
            else:
                padded = dict(left)
                for name in _output_names_best_effort(node.right, self._db.catalog):
                    padded.setdefault(name, None)
                result.append(padded)
        return result

    def _eval_aggregate(self, node: Aggregate, outer: Row | None) -> list[Row]:
        child = self.eval_rel(node.child, outer)
        if not node.group_by:
            return [self._fold_group(node, (), child, outer)]
        groups: dict[tuple, list[Row]] = {}
        order: list[tuple] = []
        for row in child:
            key = tuple(
                _hashable(self.eval_scalar(g, self._merge(row, outer)))
                for g in node.group_by
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        return [self._fold_group(node, key, groups[key], outer) for key in order]

    def _fold_group(
        self, node: Aggregate, key: tuple, rows: list[Row], outer: Row | None
    ) -> Row:
        result: Row = {}
        for group_expr, value in zip(node.group_by, key):
            name = group_expr.name if isinstance(group_expr, Col) else str(group_expr)
            result[name] = _unhashable(value)
        for item in node.aggs:
            result[item.output_name] = self._eval_agg_call(item.call, rows, outer)
        return result

    def _eval_agg_call(self, call: AggCall, rows: list[Row], outer: Row | None) -> Any:
        if call.func == "count" and call.arg is None:
            return len(rows)
        values = [
            self.eval_scalar(call.arg, self._merge(row, outer)) for row in rows
        ]
        values = [v for v in values if v is not None]  # SQL: aggregates skip NULLs
        if call.distinct:
            seen: list[Any] = []
            for value in values:
                if value not in seen:
                    seen.append(value)
            values = seen
        if call.func == "count":
            return len(values)
        if not values:
            return None
        if call.func == "sum":
            return sum(values)
        if call.func == "min":
            return min(values)
        if call.func == "max":
            return max(values)
        if call.func == "avg":
            return sql_avg(values)
        custom = self._db.aggregates.get(call.func.lower())
        if custom is not None:
            return custom(values)
        raise EngineError(f"unknown aggregate {call.func!r}")

    def _project_row(self, node: Project, row: Row, outer: Row | None) -> Row:
        scope = self._merge(row, outer)
        result: Row = {}
        for item in node.items:
            if isinstance(item.expr, Col) and item.expr.name == "*":
                for key, value in row.items():
                    result[key] = value
                continue
            result[item.output_name] = self.eval_scalar(item.expr, scope)
        # Alias-qualified source columns pass through invisibly (they do not
        # count as output or transfer): like SQL, ORDER BY above a SELECT
        # list may still reference the FROM tables' columns.
        for key, value in row.items():
            if "." in key:
                result.setdefault(key, value)
        return result

    def _sort_key(self, key, row: Row):
        value = self.eval_scalar(key.expr, row)
        if key.ascending:
            return nulls_last_key(value)
        return descending_key(value)

    @staticmethod
    def _merge(row: Row, outer: Row | None) -> Row:
        if not outer:
            return row
        merged = dict(outer)
        merged.update(row)
        return merged

    # ------------------------------------------------------------------
    # Scalar expressions

    def eval_scalar(self, expr: ScalarExpr, row: Row) -> Any:
        if isinstance(expr, Lit):
            return expr.value
        if isinstance(expr, Col):
            return self._lookup(expr, row)
        if isinstance(expr, Param):
            if expr.name not in self._params:
                raise EngineError(f"unbound parameter :{expr.name}")
            return self._params[expr.name]
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, row)
        if isinstance(expr, UnOp):
            if expr.op.upper() == "NOT":
                return sql_not(self.eval_scalar(expr.operand, row))
            if expr.op == "-":
                value = self.eval_scalar(expr.operand, row)
                return None if value is None else -value
            raise EngineError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, Func):
            return self._eval_func(expr, row)
        if isinstance(expr, CaseWhen):
            if is_truthy(self.eval_scalar(expr.cond, row)):
                return self.eval_scalar(expr.if_true, row)
            return self.eval_scalar(expr.if_false, row)
        if isinstance(expr, ExistsExpr):
            rows = self.eval_rel(expr.query, row)
            return not rows if expr.negated else bool(rows)
        if isinstance(expr, ScalarSubquery):
            rows = self.eval_rel(expr.query, row)
            if not rows:
                return None
            first = rows[0]
            plain = [v for k, v in first.items() if "." not in k]
            return plain[0] if plain else None
        raise EngineError(f"cannot evaluate scalar {type(expr).__name__}")

    def _lookup(self, col: Col, row: Row) -> Any:
        if col.qualifier:
            qualified = f"{col.qualifier}.{col.name}"
            if qualified in row:
                return row[qualified]
        if col.name in row:
            return row[col.name]
        if col.qualifier is None:
            # Accept any unique qualified match.
            suffix = f".{col.name}"
            matches = [k for k in row if k.endswith(suffix)]
            if len(matches) == 1:
                return row[matches[0]]
        raise EngineError(f"unknown column {col}")

    def _eval_binop(self, expr: BinOp, row: Row) -> Any:
        op = expr.op.upper()
        if op == "AND":
            return sql_and(
                self.eval_scalar(expr.left, row), self.eval_scalar(expr.right, row)
            )
        if op == "OR":
            return sql_or(
                self.eval_scalar(expr.left, row), self.eval_scalar(expr.right, row)
            )
        left = self.eval_scalar(expr.left, row)
        right = self.eval_scalar(expr.right, row)
        if op in ("=", "!=", "<", ">", "<=", ">="):
            return sql_compare(op, left, right)
        if left is None or right is None:
            return None
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
        if op == "||":
            return str(left) + str(right)
        if op == "LIKE":
            return _sql_like(str(left), str(right))
        raise EngineError(f"unknown binary operator {expr.op!r}")

    def _eval_func(self, expr: Func, row: Row) -> Any:
        args = [self.eval_scalar(a, row) for a in expr.args]
        return _apply_func(expr.name, args)


#: Backwards-compatible private alias (pre-planner name).
_Evaluator = ReferenceEvaluator


def _apply_func(name: str, args: list) -> Any:
    """Evaluate one scalar function call on already-evaluated arguments.

    The single source of scalar-function semantics: the reference
    evaluator's tree walk and the columnar engine's vectorized loops both
    call this helper, so the engines can never disagree on a function's
    NULL handling or result.
    """
    upper = name.upper()
    if upper == "ISNULL":
        return args[0] is None
    if upper == "COALESCE":
        for value in args:
            if value is not None:
                return value
        return None
    if upper == "CONCAT":
        # Render like Java string concatenation (the imperative code the
        # expression came from): lowercase booleans, "null" for NULL.
        return "".join(to_display(a) for a in args)
    if any(a is None for a in args):
        return None
    if upper == "GREATEST":
        return max(args)
    if upper == "LEAST":
        return min(args)
    if upper == "UPPER":
        return args[0].upper()
    if upper == "LOWER":
        return args[0].lower()
    if upper == "LENGTH":
        return len(args[0])
    if upper == "ABS":
        return abs(args[0])
    if upper == "SUBSTRING":
        text, start = args[0], args[1]
        if len(args) > 2:
            return text[start - 1 : start - 1 + args[2]]
        return text[start - 1 :]
    if upper == "TRIM":
        return args[0].strip()
    if upper == "ROUND":
        digits = int(args[1]) if len(args) > 1 else 0
        return round(args[0], digits)
    raise EngineError(f"unknown scalar function {name!r}")


def _plan_uses_columnar(plan) -> bool:
    """True when a physical plan contains a columnar operator (pipeline,
    vectorized join, or vectorized semi/anti-join)."""
    label = getattr(plan, "label", "")
    if isinstance(label, str) and label.startswith("Columnar"):
        return True
    return any(_plan_uses_columnar(child) for child in plan.children())


@lru_cache(maxsize=512)
def _like_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern once per distinct pattern string."""
    return re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."))


def _sql_like(value: str, pattern: str) -> bool:
    return _like_regex(pattern).fullmatch(value) is not None


def _hashable(value: Any) -> Any:
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def _unhashable(value: Any) -> Any:
    return value


class _FingerprintColumns:
    """Per-Distinct cache of the sorted plain-column order.

    The fingerprint column order is computed once per distinct row layout
    (the full key tuple) instead of re-sorting every row's items; rows from
    one relation almost always share a single layout.
    """

    __slots__ = ("_layouts",)

    def __init__(self):
        self._layouts: dict[tuple, tuple[str, ...]] = {}

    def fingerprint(self, row: Row) -> tuple:
        layout = tuple(row)
        columns = self._layouts.get(layout)
        if columns is None:
            columns = tuple(sorted(k for k in layout if "." not in k))
            self._layouts[layout] = columns
        return tuple((k, _hashable(row[k])) for k in columns)


def _pad_left_row(
    left: Row, right_rows: list[Row], right_rel: RelExpr, db: Database
) -> Row:
    """NULL-pad an unmatched left-join row.

    When the right side produced rows, its actual keys are authoritative;
    when it is empty, the pad set comes from the right relation's statically
    inferable output names (so a left join against an empty relation still
    emits the right side's columns as NULLs).
    """
    padded = dict(left)
    if right_rows:
        names = right_rows[0]
    else:
        names = _output_names_best_effort(right_rel, db.catalog)
    for key in names:
        padded.setdefault(key, None)
    return padded


def _output_names_best_effort(
    node: RelExpr, catalog: Catalog | None = None
) -> list[str]:
    """Column names an empty join/apply branch must pad with NULLs."""
    if isinstance(node, Project):
        return [item.output_name for item in node.items]
    if isinstance(node, Aggregate):
        names = [
            g.name if isinstance(g, Col) else str(g) for g in node.group_by
        ]
        names.extend(item.output_name for item in node.aggs)
        return names
    if isinstance(node, Table):
        if catalog is None or node.name not in catalog:
            return []
        columns = catalog.get(node.name).column_names()
        alias = node.alias or node.name
        return columns + [f"{alias}.{c}" for c in columns]
    if isinstance(node, Join):
        left = _output_names_best_effort(node.left, catalog)
        right = _output_names_best_effort(node.right, catalog)
        return left + [name for name in right if name not in left]
    if isinstance(node, Alias):
        child = _output_names_best_effort(node.child, catalog)
        return child + [f"{node.name}.{c}" for c in child if "." not in c]
    if isinstance(node, (Select, Sort, Distinct, Limit)):
        return _output_names_best_effort(node.child, catalog)
    return []
