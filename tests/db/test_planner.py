"""Unit tests for the physical planner and operators.

Covers the lowering decisions (hash-join key extraction, semi/anti-join
decorrelation, Top-N fusion, point lookups), index lifecycle (lazy build,
invalidation on insert/clear), the plan cache, and the satellite fixes
(left-join padding on empty right side, LIKE regex caching, AVG division
semantics agreeing across engines).

The shared fixture's tables hold a handful of rows, where ``auto`` mode
lowers every supported scan shape to a columnar operator; tests that
check a row operator's lowering pin ``columnar="off"``.
"""

from __future__ import annotations

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    Col,
    ExistsExpr,
    Join,
    Limit,
    Lit,
    Project,
    ProjectItem,
    Select,
    Sort,
    SortKey,
    Table,
    UnOp,
)
from repro.db import Database
from repro.db.engine import _like_regex
from repro.db.physical import (
    FilterOp,
    HashJoin,
    HashSemiJoin,
    IndexLookup,
    IndexNLJoin,
    NestedLoopJoin,
    SeqScan,
    TopN,
    total_scanned,
)
from repro.db.planner import Planner, scope_names, split_conjuncts


def _both(db, query, params=None):
    """Execute on both engines, assert they agree, return the rows."""
    reference = db.execute(query, params, engine="reference")
    planned = db.execute(query, params, engine="planned")
    assert planned == reference
    return planned


class TestHashJoinExtraction:
    def test_equality_conjunct_becomes_hash_join(self, database):
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("role_id", "u"), Col("id", "r")),
        )
        plan = Planner(database, columnar="off").lower(join)
        assert isinstance(plan, HashJoin)
        assert plan.left_keys == (Col("role_id", "u"),)
        assert plan.right_keys == (Col("id", "r"),)
        assert plan.residual is None
        _both(database, join)

    def test_swapped_sides_are_normalized(self, database):
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("id", "r"), Col("role_id", "u")),
        )
        plan = Planner(database, columnar="off").lower(join)
        assert isinstance(plan, HashJoin)
        assert plan.left_keys == (Col("role_id", "u"),)
        assert plan.right_keys == (Col("id", "r"),)

    def test_non_equality_conjunct_stays_residual(self, database):
        pred = BinOp(
            "AND",
            BinOp("=", Col("role_id", "u"), Col("id", "r")),
            BinOp("!=", Col("name", "u"), Lit("bob")),
        )
        join = Join(Table("wilosuser", "u"), Table("role", "r"), pred)
        plan = Planner(database, columnar="off").lower(join)
        assert isinstance(plan, HashJoin)
        assert len(plan.left_keys) == 1
        assert plan.residual is not None
        _both(database, join)

    def test_single_side_equality_is_not_a_key(self, database):
        # u.role_id = 2 references only the left side: no hash key.
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("role_id", "u"), Lit(2)),
        )
        plan = Planner(database).lower(join)
        assert isinstance(plan, NestedLoopJoin)
        _both(database, join)

    def test_cross_join_has_no_keys(self, database):
        join = Join(Table("wilosuser"), Table("role", "r"), None, "cross")
        plan = Planner(database).lower(join)
        assert isinstance(plan, NestedLoopJoin)
        _both(database, join)

    def test_null_join_keys_never_match(self, catalog):
        db = Database(catalog)
        db.insert("wilosuser", {"id": 1, "name": "n", "role_id": None})
        db.insert("role", {"id": 1, "role_name": "admin"})
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("role_id", "u"), Col("id", "r")),
        )
        assert _both(db, join) == []


class TestSemiJoin:
    def _exists_query(self, negated=False):
        inner = Select(
            Table("orders", "o"),
            BinOp("=", Col("cust", "o"), Col("cust", "customers")),
        )
        return Select(
            Table("customers"), ExistsExpr(inner, negated=negated)
        )

    def test_correlated_exists_decorrelates(self, database):
        plan = Planner(database, columnar="off").lower(self._exists_query())
        assert isinstance(plan, HashSemiJoin)
        assert plan.inner_keys == (Col("cust", "o"),)
        assert plan.outer_keys == (Col("cust", "customers"),)
        rows = _both(database, self._exists_query())
        assert {r["cust"] for r in rows} == {"a", "b"}

    def test_not_exists_is_anti_join(self, database):
        plan = Planner(database, columnar="off").lower(self._exists_query(negated=True))
        assert isinstance(plan, HashSemiJoin)
        assert plan.negated
        assert plan.label == "HashAntiJoin"
        assert _both(database, self._exists_query(negated=True)) == []

    def test_not_wrapped_exists_flips_negation(self, database):
        inner = Select(
            Table("orders", "o"),
            BinOp("=", Col("cust", "o"), Col("cust", "customers")),
        )
        query = Select(
            Table("customers"), UnOp("NOT", ExistsExpr(inner))
        )
        plan = Planner(database, columnar="off").lower(query)
        assert isinstance(plan, HashSemiJoin)
        assert plan.negated
        _both(database, query)

    def test_uncorrelated_exists_has_no_keys(self, database):
        query = Select(
            Table("customers"),
            ExistsExpr(Select(Table("orders"), BinOp(">", Col("amount"), Lit(15)))),
        )
        plan = Planner(database).lower(query)
        assert isinstance(plan, HashSemiJoin)
        assert plan.outer_keys == ()
        assert len(_both(database, query)) == 2

    def test_aggregate_inner_bails_to_filter(self, database):
        # γ without GROUP BY yields one row even over empty input: EXISTS is
        # always true, so peeling it as emptiness-preserving would be wrong.
        inner = Aggregate(
            Select(Table("orders", "o"),
                   BinOp("=", Col("cust", "o"), Col("cust", "customers"))),
            (),
            (AggItem(AggCall("count"), "n"),),
        )
        query = Select(Table("customers"), ExistsExpr(inner))
        plan = Planner(database).lower(query)
        assert isinstance(plan, FilterOp)
        rows = _both(database, query)
        assert len(rows) == 2  # EXISTS(aggregate) is always true


class TestTopN:
    def test_sort_limit_fuses_to_topn(self, database):
        query = Limit(
            Sort(Table("project"), (SortKey(Col("budget"), ascending=False),)), 2
        )
        plan = Planner(database, columnar="off").lower(query)
        assert isinstance(plan, TopN)
        rows = _both(database, query)
        assert [r["budget"] for r in rows] == [30, 20]

    def test_topn_with_nulls_orders_like_reference(self, catalog):
        db = Database(catalog)
        db.insert_many(
            "project",
            [
                {"id": 1, "name": "a", "budget": None},
                {"id": 2, "name": "b", "budget": 5},
                {"id": 3, "name": "c", "budget": None},
                {"id": 4, "name": "d", "budget": 1},
            ],
        )
        for ascending in (True, False):
            for count in (1, 2, 3, 10):
                query = Limit(
                    Sort(Table("project"), (SortKey(Col("budget"), ascending),)),
                    count,
                )
                _both(db, query)

    def test_topn_ties_are_stable(self, catalog):
        db = Database(catalog)
        db.insert_many(
            "project",
            [{"id": i, "name": f"n{i}", "budget": 7} for i in range(1, 6)],
        )
        query = Limit(Sort(Table("project"), (SortKey(Col("budget")),)), 3)
        rows = _both(db, query)
        assert [r["id"] for r in rows] == [1, 2, 3]  # input order preserved

    def test_zero_and_negative_limits(self, database):
        sort = Sort(Table("project"), (SortKey(Col("budget")),))
        assert _both(database, Limit(sort, 0)) == []
        _both(database, Limit(sort, -1))


class TestIndexes:
    def test_point_lookup_on_key_column(self, database):
        query = Select(Table("project"), BinOp("=", Col("id"), Lit(2)))
        plan = Planner(database).lower(query)
        assert isinstance(plan, IndexLookup)
        rows = _both(database, query)
        assert rows[0]["name"] == "beta"

    def test_non_key_column_needs_explicit_index(self, database):
        query = Select(Table("project"), BinOp("=", Col("budget"), Lit(20)))
        assert isinstance(Planner(database, columnar="off").lower(query), FilterOp)
        database.create_index("project", "budget")
        assert isinstance(Planner(database, columnar="off").lower(query), IndexLookup)
        _both(database, query)

    def test_index_invalidated_on_insert(self, database):
        query = Select(Table("project"), BinOp("=", Col("id"), Lit(9)))
        assert _both(database, query) == []
        database.insert("project", {"id": 9, "name": "iota", "budget": 1})
        rows = _both(database, query)
        assert rows[0]["name"] == "iota"

    def test_index_invalidated_on_clear(self, database):
        query = Select(Table("project"), BinOp("=", Col("id"), Lit(2)))
        assert len(_both(database, query)) == 1
        database.clear("project")
        assert _both(database, query) == []

    def test_registered_index_enables_index_nested_loop_join(self, database):
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("role_id", "u"), Col("id", "r")),
        )
        database.create_index("role", "id")
        plan = Planner(database, columnar="off").lower(join)
        assert isinstance(plan, IndexNLJoin)
        rows = _both(database, join)
        assert len(rows) == 3

    def test_unhashable_values_fall_back(self, catalog):
        catalog.define("blob", ["id", "payload"], key=("id",))
        db = Database(catalog)
        db.insert("blob", {"id": 1, "payload": [1, 2]})
        db.insert("blob", {"id": 2, "payload": [3]})
        db.create_index("blob", "payload")
        query = Select(Table("blob"), BinOp("=", Col("payload"), Lit(7)))
        assert _both(db, query) == []


class TestPlanCache:
    def test_repeated_execution_hits_cache(self, database):
        query = Select(Table("project"), BinOp(">", Col("budget"), Lit(5)))
        database.execute(query)
        misses = database.plan_cache_misses
        database.execute(query)
        database.execute(query)
        assert database.plan_cache_misses == misses
        assert database.plan_cache_hits >= 2

    def test_create_index_clears_cache(self, database):
        query = Select(Table("project"), BinOp("=", Col("budget"), Lit(20)))
        database.execute(query)
        database.create_index("project", "budget")
        assert query not in database._plan_cache


class TestChoose:
    def test_choose_picks_cheapest_alternative(self, database):
        planner = Planner(database)
        expensive, cheap, tied = object(), object(), object()
        best = planner._choose(
            "g", [("expensive", 10.0, expensive), ("cheap", 2.0, cheap),
                  ("tied", 2.0, tied)],
        )
        assert best is cheap  # the first candidate of least cost wins ties
        planner.lower(Table("project"))
        search = database.last_plan_search
        assert (search["groups"], search["alternatives"]) == (1, 3)
        (choice,) = search["choices"]
        assert (choice["label"], choice["chosen"], choice["cost"]) == ("g", "cheap", 2.0)
        assert choice["rejected"] == [
            {"op": "expensive", "cost": 10.0}, {"op": "tied", "cost": 2.0}
        ]
        assert choice["margin"] == 0.0

    def test_force_picks_the_columnar_candidate(self, database):
        columnar, probe = object(), object()
        planner = Planner(database, columnar="force")
        best = planner._choose(
            "g", [("IndexLookup", 1.0, probe), ("Columnar", 9.0, columnar)]
        )
        assert best is columnar
        assert planner._choices[0]["margin"] == -8.0


class TestExplain:
    def test_explain_tree_shape(self, database):
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("role_id", "u"), Col("id", "r")),
        )
        database.columnar_mode = "off"
        explain = database.explain(join)
        assert explain["op"] == "HashJoin"
        assert explain["rows_out"] == 3
        children = {c["op"] for c in explain["children"]}
        assert children == {"SeqScan"}
        assert total_scanned(explain) == 3 + 2

    def test_limit_short_circuits_scan(self, database):
        explain = database.explain(Limit(Table("project"), 1))
        scan = explain["children"][0]
        assert scan["rows_scanned"] == 1  # streaming: only one row pulled


class TestSatelliteFixes:
    def test_left_join_empty_right_pads_columns(self, database):
        """Regression: left join against an empty right relation must still
        emit the right side's columns as NULLs (on both engines)."""
        database.clear("role")
        join = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("role_id", "u"), Col("id", "r")),
            kind="left",
        )
        rows = _both(database, join)
        assert len(rows) == 3
        for row in rows:
            assert row["role_name"] is None
            assert "r.role_name" not in row

    def test_left_join_empty_filtered_right_pads_from_projection(self, database):
        right = Project(
            Select(Table("role", "r"), BinOp("=", Col("id", "r"), Lit(99))),
            (ProjectItem(Col("role_name", "r"), "rn"),),
        )
        join = Join(
            Table("wilosuser", "u"), right, None, kind="left"
        )
        rows = _both(database, join)
        assert all(row["rn"] is None for row in rows)

    def test_like_regex_is_cached(self, database):
        _like_regex.cache_clear()
        query = Select(Table("project"), BinOp("LIKE", Col("name"), Lit("%a%")))
        _both(database, query)
        info = _like_regex.cache_info()
        assert info.misses == 1  # one compile for the whole scan
        assert info.hits >= 1

    def test_avg_division_semantics_agree(self, database):
        query = Aggregate(
            Table("project"), (), (AggItem(AggCall("avg", Col("budget")), "a"),)
        )
        rows = _both(database, query)
        assert rows[0]["a"] == pytest.approx(65 / 4)
        assert isinstance(rows[0]["a"], float)

    def test_avg_over_empty_is_null_on_both_engines(self, catalog):
        db = Database(catalog)
        query = Aggregate(
            Table("project"), (), (AggItem(AggCall("avg", Col("budget")), "a"),)
        )
        assert _both(db, query) == [{"a": None}]


class TestScopeNames:
    def test_table_scope_includes_qualified(self, catalog):
        names = scope_names(Table("role", "r"), catalog)
        assert names == frozenset({"id", "role_name", "r.id", "r.role_name"})

    def test_unknown_table_is_inexact(self, catalog):
        assert scope_names(Table("nope"), catalog) is None

    def test_split_conjuncts_flattens_nested_ands(self):
        pred = BinOp(
            "AND",
            BinOp("AND", Lit(True), Lit(False)),
            BinOp("=", Col("x"), Lit(1)),
        )
        assert len(split_conjuncts(pred)) == 3
