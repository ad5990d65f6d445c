"""The client contract: a planned result holds plain names only.

Inside a plan a row carries the alias-qualified names (``x.a``) some
operator above it resolves; the plan root hands the client the plain names
alone.  Under every columnar mode the planned rows must equal the reference
evaluator's rows cut to their names without a "." — values, key order and
row order — over joins, derived-table aliases, ORDER BY on a qualified
column the SELECT list drops, ``SELECT *``, DISTINCT, LIMIT, EXISTS and
scalar subqueries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    Alias,
    BinOp,
    Catalog,
    Col,
    Distinct,
    ExistsExpr,
    Join,
    Limit,
    Lit,
    Project,
    ProjectItem,
    ScalarSubquery,
    Select,
    Sort,
    SortKey,
    Table,
)
from repro.db import Database
from repro.db.engine import ReferenceEvaluator

values = st.one_of(st.none(), st.integers(0, 3))
t_rows = st.lists(st.fixed_dictionaries({"id": st.integers(0, 9), "a": values, "b": values}), max_size=6)
u_rows = st.lists(st.fixed_dictionaries({"id": st.integers(0, 9), "k": values, "v": values}), max_size=6)

T, U = Table("t", "x"), Table("u", "y")
MATCH = BinOp("=", Col("k", "y"), Col("a", "x"))

sources = st.sampled_from([
    T,
    Select(T, BinOp(">=", Col("b", "x"), Lit(1))),
    Join(T, U, MATCH),
    Join(T, U, MATCH, "left"),
    Join(T, U, BinOp("AND", MATCH, BinOp("<", Col("v", "y"), Col("b")))),
    Alias(Project(T, (ProjectItem(Col("a", "x"), "p"), ProjectItem(Col("b")))), "w"),
    Select(T, ExistsExpr(Select(U, MATCH))),
    Select(T, ExistsExpr(Select(U, MATCH), negated=True)),
])

# Items valid over every source: the derived table ``w`` exposes p and b.
items = st.sampled_from([
    ProjectItem(Col("b")),
    ProjectItem(Col("id"), "ident"),
    ProjectItem(BinOp("+", Col("b"), Lit(1)), "b1"),
    ProjectItem(Lit(7), "seven"),
    ProjectItem(
        ScalarSubquery(Aggregate(Select(U, BinOp("=", Col("k", "y"), Col("b"))), (),
                                 (AggItem(AggCall("count"), "n"),))),
        "matches",
    ),
])
heads = st.one_of(
    st.just(None),
    st.just((ProjectItem(Col("*")),)),
    st.lists(items, min_size=1, max_size=3, unique=True).map(tuple),
)


def _db(t, u) -> Database:
    catalog = Catalog()
    catalog.define("t", ["id", "a", "b"])
    catalog.define("u", ["id", "k", "v"])
    db = Database(catalog)
    db.insert_many("t", t)
    db.insert_many("u", u)
    return db


def _plain(rows):
    return [{k: v for k, v in row.items() if "." not in k} for row in rows]


@given(t_rows, u_rows, sources, heads, st.booleans(), st.booleans(),
       st.one_of(st.none(), st.integers(0, 3)))
@settings(max_examples=300, deadline=None)
def test_planned_rows_are_the_reference_rows_cut_to_plain_names(
    t, u, source, head, order, distinct, limit
):
    query = source
    if order:
        # A qualified key under the projection: the SELECT list need not
        # hold it (the derived table's own name for it is ``w.b``).
        column = Col("b", "w") if isinstance(source, Alias) else Col("b", "x")
        query = Sort(query, (SortKey(column, ascending=False), SortKey(Col("b"))))
    if head is not None:
        query = Project(query, head)
        if distinct:
            query = Distinct(query)
    if limit is not None:
        query = Limit(query, limit)

    db = _db(t, u)
    expected = _plain(ReferenceEvaluator(db, {}).eval_rel(query))
    for mode in ("off", "auto", "force"):
        db.columnar_mode = mode
        rows = db.execute(query, engine="both")
        assert all("." not in name for row in rows for name in row), rows
        assert [list(row.items()) for row in rows] == [list(r.items()) for r in expected]
    assert db.execute(query, engine="reference") == expected
