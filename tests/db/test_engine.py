"""In-memory engine tests: operator semantics over real data."""

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    Alias,
    BinOp,
    CaseWhen,
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
    ProjectItem,
    ScalarSubquery,
    Select,
    Sort,
    SortKey,
    Table,
    UnOp,
)
from repro.db import Database, EngineError
from repro.sqlparse import parse_query


def col_values(rows, name):
    return [row[name] for row in rows]


class TestScan:
    def test_scan_returns_all_rows(self, database):
        rows = database.execute(Table("project"))
        assert len(rows) == 4

    def test_scan_resolves_alias_qualified_names(self, database):
        # Qualified names resolve inside the plan; the client gets plain rows.
        rows = database.execute(Table("project", "p"))
        assert all("." not in name for row in rows for name in row)
        rel = Project(Table("project", "p"), (ProjectItem(Col("name", "p"), "n"),))
        assert [r["n"] for r in database.execute(rel)] == [r["name"] for r in rows]

    def test_unknown_table_raises(self, database):
        with pytest.raises(EngineError):
            database.execute(Table("missing"))


class TestSelect:
    def test_filter(self, database):
        rel = Select(Table("project"), BinOp("=", Col("finished"), Lit(False)))
        assert col_values(database.execute(rel), "name") == ["alpha", "gamma"]

    def test_filter_preserves_order(self, database):
        rel = Select(Table("board"), BinOp("=", Col("rnd_id"), Lit(1)))
        assert col_values(database.execute(rel), "id") == [1, 2]

    def test_unknown_where_is_filtered(self, database):
        database.insert("project", {"id": 9, "name": None, "finished": None})
        rel = Select(Table("project"), BinOp("=", Col("finished"), Lit(False)))
        names = col_values(database.execute(rel), "name")
        assert None not in names  # NULL = FALSE is unknown, row dropped

    def test_parameter_binding(self, database):
        rel = Select(Table("board"), BinOp("=", Col("rnd_id"), Param("r")))
        assert len(database.execute(rel, {"r": 2})) == 1

    def test_unbound_parameter_raises(self, database):
        rel = Select(Table("board"), BinOp("=", Col("rnd_id"), Param("r")))
        with pytest.raises(EngineError):
            database.execute(rel)


class TestProject:
    def test_projection_renames(self, database):
        rel = Project(Table("project"), (ProjectItem(Col("name"), "label"),))
        rows = database.execute(rel)
        plain = {k for k in rows[0] if "." not in k}
        assert plain == {"label"}

    def test_projection_passes_qualified_columns_for_order_by(self, database):
        """Like SQL, ORDER BY above a SELECT list may reference FROM columns
        that are not projected."""
        from repro.sqlparse import parse_query

        rel = parse_query("select name from project p order by p.budget desc")
        rows = database.execute(rel)
        assert [r["name"] for r in rows] == ["gamma", "beta", "alpha", "delta"]

    def test_projection_computes(self, database):
        rel = Project(
            Table("board"),
            (ProjectItem(Func("GREATEST", (Col("p1"), Col("p2"))), "hi"),),
        )
        assert col_values(database.execute(rel), "hi") == [30, 2, 99]

    def test_projection_preserves_row_count_and_order(self, database):
        rel = Project(Table("project"), (ProjectItem(Col("id")),))
        assert col_values(database.execute(rel), "id") == [1, 2, 3, 4]

    def test_star_projection(self, database):
        rel = Project(Table("project"), (ProjectItem(Col("*")),))
        assert len(database.execute(rel)) == 4


class TestJoin:
    def test_inner_join(self, database):
        rel = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("id", "r"), Col("role_id", "u")),
        )
        rows = database.execute(rel)
        assert len(rows) == 3
        assert {r["role_name"] for r in rows} == {"admin", "dev"}

    def test_left_join_pads_nulls(self, database):
        database.insert("wilosuser", {"id": 9, "name": "zed", "role_id": 99})
        rel = Join(
            Table("wilosuser", "u"),
            Table("role", "r"),
            BinOp("=", Col("id", "r"), Col("role_id", "u")),
            "left",
        )
        rows = database.execute(rel)
        zed = [r for r in rows if r["name"] == "zed"][0]
        assert zed["role_name"] is None

    def test_cross_join(self, database):
        rel = Join(Table("role"), Table("customers"), None, "cross")
        assert len(database.execute(rel)) == 4


class TestAggregate:
    def test_global_max(self, database):
        rel = Aggregate(Table("board"), (), (AggItem(AggCall("max", Col("p1")), "m"),))
        assert database.execute(rel) == [{"m": 99}]

    def test_count_star(self, database):
        rel = Aggregate(Table("project"), (), (AggItem(AggCall("count", None), "n"),))
        assert database.execute(rel) == [{"n": 4}]

    def test_sum_on_empty_is_null(self, database):
        rel = Aggregate(
            Select(Table("orders"), Lit(False)),
            (),
            (AggItem(AggCall("sum", Col("amount")), "s"),),
        )
        assert database.execute(rel) == [{"s": None}]

    def test_count_on_empty_is_zero(self, database):
        rel = Aggregate(
            Select(Table("orders"), Lit(False)),
            (),
            (AggItem(AggCall("count", None), "n"),),
        )
        assert database.execute(rel) == [{"n": 0}]

    def test_group_by(self, database):
        rel = Aggregate(
            Table("orders"),
            (Col("cust"),),
            (AggItem(AggCall("sum", Col("amount")), "total"),),
        )
        rows = database.execute(rel)
        assert rows == [{"cust": "a", "total": 30}, {"cust": "b", "total": 5}]

    def test_aggregate_skips_nulls(self, database):
        database.insert("orders", {"id": 9, "cust": "a", "amount": None})
        rel = Aggregate(
            Table("orders"), (), (AggItem(AggCall("sum", Col("amount")), "s"),)
        )
        assert database.execute(rel) == [{"s": 35}]

    def test_avg(self, database):
        rel = Aggregate(
            Table("orders"), (), (AggItem(AggCall("avg", Col("amount")), "a"),)
        )
        assert database.execute(rel)[0]["a"] == pytest.approx(35 / 3)

    def test_count_distinct(self, database):
        rel = Aggregate(
            Table("orders"),
            (),
            (AggItem(AggCall("count", Col("cust"), distinct=True), "n"),),
        )
        assert database.execute(rel) == [{"n": 2}]


class TestSortDistinctLimit:
    def test_sort_ascending(self, database):
        rel = Sort(Table("project"), (SortKey(Col("budget")),))
        assert col_values(database.execute(rel), "budget") == [5, 10, 20, 30]

    def test_sort_descending(self, database):
        rel = Sort(Table("project"), (SortKey(Col("budget"), ascending=False),))
        assert col_values(database.execute(rel), "budget") == [30, 20, 10, 5]

    def test_sort_is_stable(self, database):
        rel = Sort(Table("board"), (SortKey(Col("rnd_id")),))
        assert col_values(database.execute(rel), "id") == [1, 2, 3]

    def test_sort_nulls_last(self, database):
        database.insert("project", {"id": 9, "name": "x", "budget": None})
        rel = Sort(Table("project"), (SortKey(Col("budget")),))
        assert database.execute(rel)[-1]["budget"] is None

    def test_limit(self, database):
        rel = Limit(Sort(Table("project"), (SortKey(Col("budget"), False),)), 2)
        assert col_values(database.execute(rel), "budget") == [30, 20]

    def test_distinct(self, database):
        rel = Distinct(Project(Table("orders"), (ProjectItem(Col("cust")),)))
        assert col_values(database.execute(rel), "cust") == ["a", "b"]


class TestOuterApply:
    def test_apply_correlated_aggregate(self, database):
        inner = Aggregate(
            Select(Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c"))),
            (),
            (AggItem(AggCall("sum", Col("amount")), "total"),),
        )
        rel = OuterApply(Table("customers", "c"), inner)
        rows = database.execute(rel)
        assert [(r["cust"], r["total"]) for r in rows] == [("a", 30), ("b", 5)]

    def test_apply_pads_nulls_on_empty(self, database):
        database.insert("customers", {"cust": "z", "region": "ap"})
        inner = Project(
            Select(Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c"))),
            (ProjectItem(Col("amount"), "amt"),),
        )
        rel = OuterApply(Table("customers", "c"), inner)
        rows = database.execute(rel)
        z = [r for r in rows if r["cust"] == "z"][0]
        assert z["amt"] is None


class TestScalarExpressions:
    def test_case_when(self, database):
        rel = Project(
            Table("project"),
            (ProjectItem(CaseWhen(Col("finished"), Lit(1), Lit(0)), "f"),),
        )
        assert col_values(database.execute(rel), "f") == [0, 1, 0, 1]

    def test_exists_subquery(self, database):
        pred = ExistsExpr(
            Select(Table("orders", "o"), BinOp("=", Col("cust", "o"), Col("cust", "c")))
        )
        rel = Select(Table("customers", "c"), pred)
        assert len(database.execute(rel)) == 2

    def test_scalar_subquery(self, database):
        sub = ScalarSubquery(
            Aggregate(Table("board"), (), (AggItem(AggCall("max", Col("p1")), "m"),))
        )
        rel = Select(Table("board"), BinOp("=", Col("p1"), sub))
        assert col_values(database.execute(rel), "id") == [3]

    def test_coalesce(self, database):
        rel = Project(
            Table("project"),
            (ProjectItem(Func("COALESCE", (Lit(None), Col("budget"))), "b"),),
        )
        assert col_values(database.execute(rel), "b") == [10, 20, 30, 5]

    def test_string_functions(self, database):
        rel = Project(
            Table("customers"),
            (ProjectItem(Func("UPPER", (Col("region"),)), "r"),),
        )
        assert col_values(database.execute(rel), "r") == ["EU", "US"]

    def test_like(self, database):
        rel = Select(Table("project"), BinOp("LIKE", Col("name"), Lit("%a")))
        names = col_values(database.execute(rel), "name")
        assert names == ["alpha", "beta", "gamma", "delta"]

    def test_arithmetic_with_null_is_null(self, database):
        rel = Project(
            Table("project"), (ProjectItem(BinOp("+", Col("budget"), Lit(None)), "x"),)
        )
        assert col_values(database.execute(rel), "x") == [None] * 4


class TestParsedQueries:
    def test_parse_and_execute(self, database):
        rel = parse_query(
            "select cust, sum(amount) as total from orders group by cust"
        )
        rows = database.execute(rel)
        assert rows == [{"cust": "a", "total": 30}, {"cust": "b", "total": 5}]

    def test_parse_and_execute_apply(self, database):
        rel = parse_query(
            "select * from customers c outer apply "
            "(select sum(o.amount) as total from orders o where o.cust = c.cust) s"
        )
        rows = database.execute(rel)
        assert [(r["cust"], r["total"]) for r in rows] == [("a", 30), ("b", 5)]
