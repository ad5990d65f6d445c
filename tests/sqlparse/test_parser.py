"""SQL/HQL parser tests."""

import pytest

from repro.algebra import (
    AggCall,
    Aggregate,
    Alias,
    BinOp,
    CaseWhen,
    Col,
    Distinct,
    ExistsExpr,
    Join,
    Limit,
    Lit,
    OuterApply,
    Param,
    Project,
    ScalarSubquery,
    Select,
    Sort,
    Table,
    UnOp,
)
from repro.sqlparse import SqlParseError, parse_query


class TestBasicSelect:
    def test_select_star(self):
        rel = parse_query("select * from board")
        assert rel == Table("board")

    def test_select_columns(self):
        rel = parse_query("select p1, p2 from board")
        assert isinstance(rel, Project)
        assert [i.output_name for i in rel.items] == ["p1", "p2"]

    def test_where(self):
        rel = parse_query("select * from board where rnd_id = 1")
        assert isinstance(rel, Select)
        assert rel.pred == BinOp("=", Col("rnd_id"), Lit(1))

    def test_table_alias(self):
        rel = parse_query("select * from board b")
        assert rel == Table("board", "b")

    def test_table_alias_with_as(self):
        rel = parse_query("select * from board as b")
        assert rel == Table("board", "b")

    def test_qualified_columns(self):
        rel = parse_query("select b.p1 from board b")
        assert rel.items[0].expr == Col("p1", "b")

    def test_column_alias(self):
        rel = parse_query("select p1 as score from board")
        assert rel.items[0].alias == "score"


class TestHqlStyle:
    def test_from_only(self):
        rel = parse_query("from Board as b where b.rnd_id = 1")
        assert isinstance(rel, Select)
        assert rel.child == Table("Board", "b")

    def test_from_without_where(self):
        assert parse_query("from Board") == Table("Board")


class TestPredicates:
    def test_and_or_precedence(self):
        rel = parse_query("select * from t where a = 1 and b = 2 or c = 3")
        assert rel.pred.op == "OR"
        assert rel.pred.left.op == "AND"

    def test_not(self):
        rel = parse_query("select * from t where not a = 1")
        assert isinstance(rel.pred, UnOp)

    def test_is_null(self):
        rel = parse_query("select * from t where x is null")
        assert rel.pred.name == "ISNULL"

    def test_is_not_null(self):
        rel = parse_query("select * from t where x is not null")
        assert isinstance(rel.pred, UnOp)

    def test_like(self):
        rel = parse_query("select * from t where name like 'a%'")
        assert rel.pred.op == "LIKE"

    def test_comparison_operators(self):
        for op in ("<", ">", "<=", ">=", "!="):
            rel = parse_query(f"select * from t where x {op} 1")
            assert rel.pred.op == op
        rel = parse_query("select * from t where x <> 1")
        assert rel.pred.op == "!="

    def test_string_literal_with_escaped_quote(self):
        rel = parse_query("select * from t where name = 'it''s'")
        assert rel.pred.right == Lit("it's")


class TestParameters:
    def test_named_parameter(self):
        rel = parse_query("select * from t where id = :uid")
        assert rel.pred.right == Param("uid")

    def test_positional_parameter(self):
        rel = parse_query("select * from t where id = ?")
        assert isinstance(rel.pred.right, Param)


class TestAggregation:
    def test_count_star(self):
        rel = parse_query("select count(*) from t")
        assert isinstance(rel, Aggregate)
        assert rel.aggs[0].call == AggCall("count", None)

    def test_group_by(self):
        rel = parse_query("select cust, sum(amount) as total from orders group by cust")
        assert isinstance(rel, Aggregate)
        assert rel.group_by == (Col("cust"),)

    def test_group_by_with_reordered_select_keeps_projection(self):
        rel = parse_query(
            "select sum(amount) as total, cust from orders group by cust"
        )
        assert isinstance(rel, Project)

    def test_having(self):
        rel = parse_query(
            "select cust, sum(amount) as s from orders group by cust having s > 10"
        )
        assert isinstance(rel, Select)

    def test_distinct_aggregate(self):
        rel = parse_query("select count(distinct cust) from orders")
        assert rel.aggs[0].call.distinct


class TestJoins:
    def test_inner_join(self):
        rel = parse_query("select * from a join b on a.x = b.y")
        assert isinstance(rel, Join)
        assert rel.kind == "inner"

    def test_left_join(self):
        rel = parse_query("select * from a left join b on a.x = b.y")
        assert rel.kind == "left"

    def test_cross_join_comma(self):
        rel = parse_query("select * from a, b")
        assert rel.kind == "cross"

    def test_outer_apply(self):
        rel = parse_query(
            "select * from a outer apply (select * from b where b.x = a.x) s"
        )
        assert isinstance(rel, OuterApply)
        assert isinstance(rel.right, Alias)


class TestOrderLimit:
    def test_order_by(self):
        rel = parse_query("select * from t order by x desc, y")
        assert isinstance(rel, Sort)
        assert not rel.keys[0].ascending
        assert rel.keys[1].ascending

    def test_limit(self):
        rel = parse_query("select * from t limit 5")
        assert isinstance(rel, Limit)
        assert rel.count == 5

    def test_distinct(self):
        rel = parse_query("select distinct name from t")
        assert isinstance(rel, Distinct)


class TestSubqueries:
    def test_scalar_subquery(self):
        rel = parse_query(
            "select * from t where x > (select max(y) from u)"
        )
        assert isinstance(rel.pred.right, ScalarSubquery)

    def test_exists(self):
        rel = parse_query("select * from t where exists (select * from u)")
        assert isinstance(rel.pred, ExistsExpr)

    def test_not_exists(self):
        rel = parse_query("select * from t where not exists (select * from u)")
        assert isinstance(rel.pred, UnOp)

    def test_derived_table(self):
        rel = parse_query("select * from (select x from t) d")
        assert isinstance(rel, Alias)
        assert rel.name == "d"

    def test_case_when(self):
        rel = parse_query("select case when x > 0 then 1 else 0 end as s from t")
        assert isinstance(rel.items[0].expr, CaseWhen)

    def test_case_when_without_else(self):
        rel = parse_query("select case when x > 0 then 1 end as s from t")
        assert rel.items[0].expr.if_false == Lit(None)


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(SqlParseError):
            parse_query("")

    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError):
            parse_query("select * from t zzz qqq")

    def test_missing_from(self):
        with pytest.raises(SqlParseError):
            parse_query("select *")

    def test_trailing_semicolon_ok(self):
        assert parse_query("select * from t;") == Table("t")

    def test_non_integer_limit(self):
        with pytest.raises(SqlParseError, match="LIMIT"):
            parse_query("from t limit x")

    def test_deep_nesting_is_a_parse_error(self):
        nested = "(" * 3000 + "1" + ")" * 3000
        with pytest.raises(SqlParseError, match="nested too deeply"):
            parse_query(f"select a from t where a = {nested}")
