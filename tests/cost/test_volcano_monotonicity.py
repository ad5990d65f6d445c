"""Seeded-random monotonicity properties of the cost model (Appendix C).

Cost-based rewrite selection (:mod:`repro.rewrites`) is only sound if the
underlying estimates behave like a plausible optimizer's: restricting a
query can never make it look *bigger*.  These properties are checked over
randomly generated operator trees — no hypothesis dependency, failures
reproduce by seed.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    Col,
    Distinct,
    Limit,
    Lit,
    Project,
    ProjectItem,
    RelExpr,
    Select,
    Sort,
    SortKey,
    Table,
)
from repro.rewrites import AlternativeCostModel
from repro.rewrites.alternatives import KIND_AS_WRITTEN, Alternative, Site
from repro.rewrites.profile import LOCAL
from repro.sqlparse import combine_conjunctive, parse_query

_TABLES = ["orders", "players", "visits", "reviews"]
_COLUMNS = ["id", "rank", "qty", "score"]


def _random_pred(rng: random.Random) -> BinOp:
    op = rng.choice([">", "<", ">=", "<=", "=", "!="])
    return BinOp(op, Col(rng.choice(_COLUMNS)), Lit(rng.randint(-10, 50)))


def _random_tree(rng: random.Random, depth: int = 0) -> RelExpr:
    """A random operator tree rooted at a base table."""
    rel: RelExpr = Table(rng.choice(_TABLES))
    for _ in range(rng.randint(0, 3 - depth if depth < 3 else 0)):
        roll = rng.random()
        if roll < 0.4:
            rel = Select(rel, _random_pred(rng))
        elif roll < 0.55:
            rel = Distinct(rel)
        elif roll < 0.7:
            rel = Sort(rel, (SortKey(Col(rng.choice(_COLUMNS))),))
        elif roll < 0.85:
            rel = Limit(rel, rng.randint(1, 40))
        else:
            cols = rng.sample(_COLUMNS, rng.randint(1, 3))
            rel = Project(rel, tuple(ProjectItem(Col(c)) for c in cols))
    return rel


class TestCardinalityMonotonicity:
    @pytest.mark.parametrize("seed", range(6))
    def test_selection_never_increases_cardinality(self, seed):
        """card(σ_p(Q)) ≤ card(Q) for any tree Q and predicate p."""
        rng = random.Random(seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(100):
            tree = _random_tree(rng)
            base = model.cardinality(tree).rows
            restricted = model.cardinality(Select(tree, _random_pred(rng))).rows
            assert restricted <= base

    @pytest.mark.parametrize("seed", range(6))
    def test_conjunct_pushed_into_parsed_query(self, seed):
        """Same property through the SQL front end: adding one more
        conjunct via combine_conjunctive never increases the estimate."""
        rng = random.Random(100 + seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(50):
            table = rng.choice(_TABLES)
            query = parse_query(
                f"select * from {table} where {rng.choice(_COLUMNS)} > {rng.randint(0, 30)}"
            )
            tightened = combine_conjunctive(query, _random_pred(rng))
            assert model.cardinality(tightened).rows <= model.cardinality(query).rows

    @pytest.mark.parametrize("seed", range(4))
    def test_limit_never_increases_cardinality(self, seed):
        rng = random.Random(200 + seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(60):
            tree = _random_tree(rng)
            n = rng.randint(1, 50)
            assert model.cardinality(Limit(tree, n)).rows <= model.cardinality(tree).rows
            assert model.cardinality(Limit(tree, n)).rows <= n

    @pytest.mark.parametrize("seed", range(4))
    def test_distinct_and_sort_shape(self, seed):
        """δ never increases cardinality; τ preserves it exactly."""
        rng = random.Random(300 + seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(60):
            tree = _random_tree(rng)
            base = model.cardinality(tree).rows
            assert model.cardinality(Distinct(tree)).rows <= base
            sort = Sort(tree, (SortKey(Col(rng.choice(_COLUMNS))),))
            assert model.cardinality(sort).rows == base

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_aggregate_is_one_row(self, seed):
        rng = random.Random(400 + seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(40):
            tree = _random_tree(rng)
            agg = Aggregate(tree, (), (AggItem(AggCall("count", None), "agg"),))
            assert model.cardinality(agg).rows == 1.0


class TestCostMonotonicity:
    @pytest.mark.parametrize("seed", range(6))
    def test_selection_never_increases_query_cost(self, seed):
        """The same scan with a smaller result can't cost more: cost(σ_p(Q))
        ≤ cost(Q).  (Scanned rows are identical; only transfer shrinks.)"""
        rng = random.Random(500 + seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(100):
            tree = _random_tree(rng)
            base = model.query_cost_ms(tree)
            restricted = model.query_cost_ms(Select(tree, _random_pred(rng)))
            assert restricted <= base + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_cost_bounded_below_by_round_trip(self, seed):
        rng = random.Random(600 + seed)
        model = AlternativeCostModel(LOCAL)
        for _ in range(60):
            tree = _random_tree(rng)
            assert model.query_cost_ms(tree) >= model.cost.round_trip_ms

    def test_per_row_queries_scale_linearly(self):
        """The as-written N+1 loop pays one round trip per outer row and
        per-row query, on top of the outer query's single trip."""

        def per_row_trips(outer_rows: float) -> float:
            model = AlternativeCostModel(LOCAL.with_tables({"orders": outer_rows}))
            site = Site(
                function="f",
                loop_sid=1,
                variables=["x"],
                outer_rel=parse_query("select * from orders"),
                inner_lookups=[],
                residual_inner_queries=2,
            )
            as_written = Alternative(KIND_AS_WRITTEN, program=None, description="")
            cost = model.breakdown(site, as_written)
            assert cost.round_trip_ms == pytest.approx(
                cost.round_trips * LOCAL.cost.round_trip_ms
            )
            return cost.round_trips - 1.0

        one = per_row_trips(1.0)
        ten = per_row_trips(10.0)
        assert one == 2.0
        assert abs(ten - 10.0 * one) < 1e-9
