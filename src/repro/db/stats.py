"""Per-table statistics and cardinality estimation.

The planned engine's lowering decisions (index probe vs. scan, join
strategy, a columnar head vs. the same head over an index probe) were
originally fixed heuristics with no knowledge of the data.  This module
grounds them in observed table shape (no choice gates on table size:
the vectorized scan is offered for tables of any size, empty included):

* :class:`TableStats` — row count plus per-column :class:`ColumnStats`
  (non-NULL count, NULL count, number of distinct values, min/max, and an
  equi-width :class:`Histogram` for all-numeric columns).  A table's
  statistics object is made on the first ``Database.stats`` call of an
  epoch and builds each column's entry when the estimator first reads it,
  so a column nobody costs against is never summarised.  It holds the
  data of its own epoch (see :func:`build_sampled_table_stats`), and the
  next write batch retires it with the hash indexes
  (``Database._invalidate``, once per batch, clear or create_table).
* :class:`CardinalityEstimator` — textbook selectivity arithmetic over
  those statistics: ``1/NDV`` for equality, histogram fractions for range
  predicates, independence for AND, inclusion–exclusion for OR, and
  ``|L|·|R| / max(NDV)`` for equi-joins.  Estimates feed the planner's
  Volcano search (:mod:`repro.db.planner`) and, optionally, the rewrite
  cost bridge (:class:`repro.rewrites.cost.AlternativeCostModel`).

Statistics are *estimates*: the planner only uses them to rank physical
alternatives that are all semantically identical, so a bad estimate can
cost performance but never correctness.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..algebra import (
    Aggregate,
    Alias,
    BinOp,
    Col,
    Distinct,
    Join,
    Limit,
    Lit,
    OuterApply,
    Param,
    Project,
    RelExpr,
    ScalarExpr,
    Select,
    Sort,
    Table,
    UnOp,
    walk_relational,
)
from ..sqlparse.parser import SLOT
from .engine import EngineError
from .types import is_truthy

#: Equi-width histogram resolution (buckets per numeric column).
HISTOGRAM_BUCKETS = 16

#: Above this many rows ``Database.stats`` switches from an exact full-pass
#: build to a sampled one: one full O(n) statistics pass per epoch stops
#: being cheap around a few tens of thousands of rows, while a fixed-size
#: sample keeps the build O(sample) with NDV/histogram *estimates* instead
#: of exact counts.  Statistics only rank semantically-identical plans, so
#: the estimate error can cost performance but never correctness.
STATS_EXACT_MAX = 50_000

#: Rows drawn (without replacement) by a sampled statistics build.
STATS_SAMPLE_SIZE = 10_000

#: Fallback selectivities when no statistics apply.
DEFAULT_SELECTIVITY = 0.33
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_LIKE_SELECTIVITY = 0.25

#: Sentinel for "value unknown at plan time" (parameters).
_UNKNOWN = object()


@dataclass(frozen=True)
class Histogram:
    """Equi-width histogram over a numeric column."""

    lo: float
    hi: float
    counts: tuple[int, ...]
    total: int

    def fraction_le(self, value: float) -> float:
        """Approximate fraction of values ``<= value`` (linear within a
        bucket, the classic equi-width interpolation)."""
        if self.total == 0:
            return 0.0
        if value < self.lo:
            return 0.0
        if value >= self.hi:
            return 1.0
        width = (self.hi - self.lo) / len(self.counts)
        if width <= 0:
            return 1.0
        index = min(int((value - self.lo) / width), len(self.counts) - 1)
        below = sum(self.counts[:index])
        within = self.counts[index] * ((value - (self.lo + index * width)) / width)
        return min(1.0, max(0.0, (below + within) / self.total))


@dataclass(frozen=True)
class ColumnStats:
    """Shape summary of one column."""

    name: str
    row_count: int
    null_count: int
    ndv: int
    min_value: Any
    max_value: Any
    histogram: Histogram | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "row_count": self.row_count,
            "null_count": self.null_count,
            "ndv": self.ndv,
            "min": self.min_value,
            "max": self.max_value,
            "histogram_buckets": (
                None if self.histogram is None else list(self.histogram.counts)
            ),
        }


class _LazyColumns(Mapping):
    """Column name → :class:`ColumnStats`, each built on its first read.

    Iteration and ``len`` list every column without building any; ``[]``,
    ``get``, ``values`` and ``items`` build (and keep) what they touch.
    """

    def __init__(self, names, build):
        self._build = build
        self._built: dict[str, ColumnStats | None] = dict.fromkeys(names)

    def __getitem__(self, name: str) -> ColumnStats:
        stats = self._built[name]
        if stats is None:
            stats = self._built[name] = self._build(name)
        return stats

    def __contains__(self, name) -> bool:
        return name in self._built

    def __iter__(self):
        return iter(self._built)

    def __len__(self) -> int:
        return len(self._built)


@dataclass(frozen=True)
class TableStats:
    """Row count plus per-column statistics for one base table.

    ``columns`` builds a column's :class:`ColumnStats` the first time it is
    read (``column()``/``[]``), from data the object holds itself, so a
    snapshot keeps answering for the rows it was taken from after later
    writes.  ``sampled`` marks statistics built from a random sample rather
    than a full pass; ``sample_size`` records how many rows were drawn.
    Sampled NDV, NULL counts, and histograms are scaled estimates.
    """

    table: str
    row_count: int
    columns: Mapping[str, ColumnStats]
    sampled: bool = field(default=False)
    sample_size: int | None = field(default=None)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def to_dict(self) -> dict:
        return {
            "table": self.table,
            "row_count": self.row_count,
            "sampled": self.sampled,
            "sample_size": self.sample_size,
            "columns": {name: cs.to_dict() for name, cs in self.columns.items()},
        }


def _build_histogram(values: list, lo: float, hi: float) -> Histogram:
    buckets = HISTOGRAM_BUCKETS
    counts = [0] * buckets
    if hi <= lo:
        counts[0] = len(values)
        return Histogram(lo=lo, hi=hi, counts=tuple(counts), total=len(values))
    scale = buckets / (hi - lo)
    top = buckets - 1
    for value in values:
        index = int((value - lo) * scale)
        counts[index if index < top else top] += 1
    return Histogram(lo=lo, hi=hi, counts=tuple(counts), total=len(values))


def _column_stats(name: str, values: list) -> ColumnStats:
    """Exact statistics of one column: a "sample" of every row, which
    :func:`estimate_ndv` and the NULL scaling return unchanged."""
    return _sampled_column_stats(name, values, len(values), len(values))


def estimate_ndv(sample_distinct: int, sample_size: int, population: int) -> int:
    """Scale a sample's distinct count to a population NDV estimate.

    Assumes roughly uniform value multiplicity: a population with ``D``
    distinct values shows each of them in a without-replacement sample of
    ``k`` out of ``n`` rows with probability ``1 - (1 - k/n)**(n/D)``, so
    the expected sample-distinct count is ``f(D) = D·(1 - (1-k/n)**(n/D))``.
    ``f`` is monotone in ``D``; bisection inverts it on ``[d, n]``.  The
    endpoints are exact: an id-like column (``d == k``) solves to ``D = n``
    and a fully-covered low-cardinality column solves to ``D = d``.
    """
    d, k, n = sample_distinct, sample_size, population
    if d <= 0 or n <= 0:
        return 0
    if k >= n or d >= k:
        # Saturated sample: every draw was new — extrapolate linearly.
        return min(n, max(d, round(d * (n / max(k, 1)))))
    miss = 1.0 - k / n

    def expected(distinct: float) -> float:
        return distinct * (1.0 - miss ** (n / distinct))

    lo, hi = float(d), float(n)
    if expected(hi) <= d:
        return n
    for _ in range(50):
        mid = (lo + hi) / 2.0
        if expected(mid) < d:
            lo = mid
        else:
            hi = mid
    return max(d, min(n, round((lo + hi) / 2.0)))


def _sampled_column_stats(
    name: str, values: list, population: int, sample_size: int
) -> ColumnStats:
    """ColumnStats scaled up from a sample of ``sample_size`` rows.

    NULL counts scale linearly, NDV goes through :func:`estimate_ndv`,
    min/max come from the sample (an under-estimate of the true range), and
    the histogram is built from the sample directly — its consumer
    (:meth:`Histogram.fraction_le`) is fraction-based, so no scaling is
    needed.
    """
    non_null = [v for v in values if v is not None]
    sample_nulls = len(values) - len(non_null)
    null_count = round(sample_nulls * population / max(sample_size, 1))
    non_null_pop = max(population - null_count, len(non_null))
    try:
        sample_ndv = len(set(non_null))
    except TypeError:
        sample_ndv = len({repr(v) for v in non_null})
    ndv = estimate_ndv(sample_ndv, len(non_null), non_null_pop)
    min_value = max_value = None
    if non_null:
        try:
            min_value = min(non_null)
            max_value = max(non_null)
        except TypeError:
            min_value = max_value = None
    histogram = None
    if (
        min_value is not None
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in non_null
        )
    ):
        histogram = _build_histogram(non_null, float(min_value), float(max_value))
    return ColumnStats(
        name=name,
        row_count=population,
        null_count=null_count,
        ndv=ndv,
        min_value=min_value,
        max_value=max_value,
        histogram=histogram,
    )


def build_sampled_table_stats(
    table: str,
    rows: list,
    column_names: list[str] | None,
    sample_size: int = STATS_SAMPLE_SIZE,
) -> TableStats:
    """Statistics over ``rows``, each column's built on its first read.

    The one builder for both policies.  With ``sample_size <= 0``, or a
    table no larger than the sample, a column's build is an exact pass
    over every row.  Otherwise it reads a uniform random sample of
    ``sample_size`` rows, so a column costs O(sample), not O(table).  The
    sample is drawn with a deterministic seed derived from the table name
    and row count — not Python's randomized ``hash()`` — so repeated
    builds over unchanged data produce identical statistics (and identical
    plans) across processes.  Drawing ``sample_size`` distinct indices
    upfront is equivalent to reservoir sampling for a known population
    size, without the O(n) RNG draws Algorithm R would pay.

    ``row_count`` is ``len(rows)``; no column is transposed up front.  The
    result keeps its own list of the row dicts it reads (all of them, or
    the sample), never ``rows`` itself: a write batch extends ``rows`` in
    place but never changes a stored row, so a column first read after a
    write still describes the rows this build was made from.
    """
    table = table.lower()
    n = len(rows)
    sampled = 0 < sample_size < n
    if sampled:
        seed = zlib.crc32(table.encode("utf-8")) ^ n
        indices = sorted(random.Random(seed).sample(range(n), sample_size))
        picked = [rows[i] for i in indices]
    else:
        picked = list(rows)
    names = column_names or sorted({c for row in picked for c in row})

    def build(name: str) -> ColumnStats:
        values = [row.get(name) for row in picked]
        if sampled:
            return _sampled_column_stats(name, values, n, sample_size)
        return _column_stats(name, values)

    return TableStats(
        table, n, _LazyColumns(names, build), sampled, sample_size if sampled else None
    )


class CardinalityEstimator:
    """Selectivity and cardinality estimates over a database's statistics.

    All methods degrade gracefully: unknown tables, columns without
    statistics, or expression shapes the arithmetic does not cover fall
    back to the module's default selectivities, so the estimator is total
    over every algebra tree the engine can execute.
    """

    def __init__(self, db, bindings: Mapping[str, Any] | None = None):
        self._db = db
        #: Slot values (``$0``, ...); other parameters stay unknown.
        self._slots = {k: v for k, v in (bindings or {}).items() if k.startswith(SLOT)}
        #: ``(slot, op, stats, flipped, selectivity)`` per slot read: a guard.
        self.reads: list[tuple] = []

    # ------------------------------------------------------------------
    # Table-level lookups

    def stats(self, table: str) -> TableStats | None:
        """The table's statistics, or ``None`` for an unknown table (the
        only error ``Database.stats`` raises; mixed-type and unhashable
        columns build statistics without raising)."""
        try:
            return self._db.stats(table)
        except EngineError:
            return None

    def table_rows(self, table: str) -> float:
        stats = self.stats(table)
        return 0.0 if stats is None else float(stats.row_count)

    def ndv(self, table: str, column: str) -> int | None:
        stats = self.stats(table)
        if stats is None:
            return None
        cs = stats.column(column)
        return None if cs is None else cs.ndv

    # ------------------------------------------------------------------
    # Predicate selectivity against one base table

    def selectivity(self, pred: ScalarExpr | None, table: str) -> float:
        """Estimated fraction of ``table``'s rows satisfying ``pred``."""
        if pred is None:
            return 1.0
        stats = self.stats(table)
        return self._pred_sel(pred, stats)

    def select_selectivity(self, rel: Select) -> float | None:
        """Selectivity of a σ node's predicate against the base table its
        columns resolve to, or ``None`` when no single base table can be
        identified (e.g. a selection over a join)."""
        base = self._base_table(rel.child)
        if base is None:
            return None
        return self.selectivity(rel.pred, base)

    def _pred_sel(self, expr: ScalarExpr, stats: TableStats | None) -> float:
        if isinstance(expr, BinOp):
            op = expr.op.upper()
            if op == "AND":
                return self._clamp(
                    self._pred_sel(expr.left, stats)
                    * self._pred_sel(expr.right, stats)
                )
            if op == "OR":
                a = self._pred_sel(expr.left, stats)
                b = self._pred_sel(expr.right, stats)
                return self._clamp(a + b - a * b)
            if op in ("=", "!=", "<", ">", "<=", ">="):
                return self._cmp_sel(op, expr.left, expr.right, stats)
            if op == "LIKE":
                return DEFAULT_LIKE_SELECTIVITY
            return DEFAULT_SELECTIVITY
        if isinstance(expr, UnOp) and expr.op.upper() == "NOT":
            return self._clamp(1.0 - self._pred_sel(expr.operand, stats))
        if isinstance(expr, Lit):
            return 1.0 if is_truthy(expr.value) else 0.0
        if isinstance(expr, Param) and expr.name in self._slots:
            sel = self._value_sel(None, None, self._slots[expr.name], False)
            self.reads.append((expr.name, None, None, False, sel))
            return sel
        return DEFAULT_SELECTIVITY

    def _cmp_sel(self, op, left, right, stats: TableStats | None) -> float:
        column, value, flipped = self._column_vs_value(left, right, stats)
        if column is None:
            # col-to-col comparison on the same table, or no statistics.
            if (
                op == "="
                and stats is not None
                and isinstance(left, Col)
                and isinstance(right, Col)
            ):
                a, b = stats.column(left.name), stats.column(right.name)
                if a is not None and b is not None:
                    return self._clamp(1.0 / max(a.ndv, b.ndv, 1))
            return (
                DEFAULT_EQ_SELECTIVITY
                if op in ("=", "!=")
                else DEFAULT_SELECTIVITY
            )
        sel = self._value_sel(op, column, value, flipped)
        slot = left if flipped else right
        if isinstance(slot, Param) and slot.name in self._slots:
            self.reads.append((slot.name, op, column, flipped, sel))
        return sel

    @classmethod
    def _value_sel(cls, op, cs: ColumnStats | None, value, flipped: bool) -> float:
        """Selectivity of ``column OP value`` (``op=None``: of ``value`` as a
        whole predicate) — a function of its arguments alone."""
        if op is None:
            return 1.0 if is_truthy(value) else 0.0
        if op in ("<", ">", "<=", ">="):
            if flipped:
                # value OP col  ≡  col (flipped OP) value
                op = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]
            return cls._range_sel(op, cs, value)
        eq = cls._eq_sel(cs, value)
        return eq if op == "=" else cls._clamp(1.0 - eq)

    @classmethod
    def reads_hold(cls, reads, params: Mapping[str, Any] | None) -> bool:
        """True when every logged slot read answers the same for the slot
        values in ``params``, so planning for them makes the same choices."""
        params = params or {}
        return all(
            cls._value_sel(op, cs, params.get(slot, _UNKNOWN), flipped) == sel
            for slot, op, cs, flipped, sel in reads
        )

    def _column_vs_value(self, left, right, stats):
        """Split a comparison into (ColumnStats, value-or-_UNKNOWN, flipped);
        ``flipped`` is True when the column sits on the right-hand side."""
        if stats is None:
            return None, None, False
        for col, other, flipped in ((left, right, False), (right, left, True)):
            if not isinstance(col, Col):
                continue
            cs = stats.column(col.name)
            if cs is None:
                continue
            if isinstance(other, Col):
                return None, None, False
            if isinstance(other, Lit):
                return cs, other.value, flipped
            if isinstance(other, Param):
                return cs, self._slots.get(other.name, _UNKNOWN), flipped
            return cs, _UNKNOWN, flipped
        return None, None, False

    @classmethod
    def _eq_sel(cls, cs: ColumnStats, value) -> float:
        if cs.row_count == 0 or cs.ndv == 0:
            return 0.0
        if value is None:
            return 0.0  # col = NULL is never true
        if value is not _UNKNOWN and cs.histogram is not None:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if value < cs.min_value or value > cs.max_value:
                    return 0.0
            else:
                return 0.0  # non-numeric literal against a numeric column
        return cls._clamp(1.0 / cs.ndv)

    @classmethod
    def _range_sel(cls, op: str, cs: ColumnStats, value) -> float:
        if cs.row_count == 0:
            return 0.0
        if value is None:
            return 0.0
        hist = cs.histogram
        if (
            value is _UNKNOWN
            or hist is None
            or not isinstance(value, (int, float))
            or isinstance(value, bool)
        ):
            return DEFAULT_SELECTIVITY
        le = hist.fraction_le(float(value))
        point = 1.0 / max(cs.ndv, 1)
        if op == "<=":
            sel = le
        elif op == "<":
            sel = le - point
        elif op == ">":
            sel = 1.0 - le
        else:  # >=
            sel = 1.0 - le + point
        # Discount NULLs: they satisfy no comparison.
        non_null = (cs.row_count - cs.null_count) / cs.row_count
        return cls._clamp(sel * non_null)

    @staticmethod
    def _clamp(value: float) -> float:
        return min(1.0, max(0.0, value))

    # ------------------------------------------------------------------
    # Cardinality of relational trees

    def estimate(self, rel: RelExpr) -> float:
        """Estimated output row count of an algebra tree."""
        if isinstance(rel, Table):
            return self.table_rows(rel.name)
        if isinstance(rel, Select):
            base = self._base_table(rel.child)
            child = self.estimate(rel.child)
            if base is None:
                return child * DEFAULT_SELECTIVITY
            return child * self.selectivity(rel.pred, base)
        if isinstance(rel, (Project, Sort, Alias)):
            return self.estimate(rel.child)
        if isinstance(rel, Distinct):
            return self.estimate(rel.child)
        if isinstance(rel, Limit):
            return min(float(max(rel.count, 0)), self.estimate(rel.child))
        if isinstance(rel, Aggregate):
            return self._estimate_aggregate(rel)
        if isinstance(rel, Join):
            return self._estimate_join(rel)
        if isinstance(rel, OuterApply):
            return self.estimate(rel.left)
        return 1.0

    def _base_table(self, rel: RelExpr) -> str | None:
        """The single base table a predicate's columns resolve against,
        looking through name-preserving wrappers."""
        while isinstance(rel, (Select, Sort, Distinct, Limit, Alias)):
            rel = rel.child
        if isinstance(rel, Table):
            return rel.name
        return None

    def _tables_below(self, rel: RelExpr) -> list[str]:
        return [n.name for n in walk_relational(rel) if isinstance(n, Table)]

    def _ndv_below(self, col: Col, rel: RelExpr) -> int | None:
        """NDV of ``col`` against whichever base table below ``rel``
        defines it (first match)."""
        for table in self._tables_below(rel):
            ndv = self.ndv(table, col.name)
            if ndv is not None:
                return ndv
        return None

    def _estimate_aggregate(self, rel: Aggregate) -> float:
        child = self.estimate(rel.child)
        if not rel.group_by:
            return 1.0
        groups = 1.0
        for expr in rel.group_by:
            if isinstance(expr, Col):
                ndv = self._ndv_below(expr, rel.child)
                groups *= float(ndv) if ndv is not None else max(child, 1.0) ** 0.5
            else:
                groups *= max(child, 1.0) ** 0.5
        return max(min(groups, child), 1.0 if child > 0 else 0.0)

    def _estimate_join(self, rel: Join) -> float:
        left = self.estimate(rel.left)
        right = self.estimate(rel.right)
        rows = left * right
        if rel.pred is not None:
            from .planner import split_conjuncts  # late: avoids import cycle

            for conjunct in split_conjuncts(rel.pred):
                if (
                    isinstance(conjunct, BinOp)
                    and conjunct.op == "="
                    and isinstance(conjunct.left, Col)
                    and isinstance(conjunct.right, Col)
                ):
                    ndvs = [
                        self._ndv_below(conjunct.left, rel),
                        self._ndv_below(conjunct.right, rel),
                    ]
                    known = [n for n in ndvs if n is not None]
                    # NDV 0 (empty table, all-NULL key): clamp the divisor
                    # like the planner's ``max(ndv, 1)`` does.
                    rows /= float(max(*known, 1)) if known else 10.0
                else:
                    rows *= DEFAULT_SELECTIVITY
        if rel.kind == "left":
            rows = max(rows, left)
        return rows
