"""DISTINCT inside the columnar pipeline: the δ stage.

When a ``Distinct``'s child lowers to a project-head columnar pipeline, the
planner folds the duplicate elimination into that pipeline.  The stage must
return exactly what ``DistinctOp`` over the row plan and the reference
evaluator return: the same rows, the same key order, the same first
occurrence kept when values collide (``1``/``True``), lists compared
through ``_hashable``, and the same rows scanned.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import (
    BinOp,
    Catalog,
    Col,
    Distinct,
    Func,
    Limit,
    Lit,
    Project,
    ProjectItem,
    Select,
    Table,
)
from repro.db import Database
from repro.db.columnar import ColumnarPipeline
from repro.db.physical import (
    DistinctOp,
    ExecContext,
    LimitOp,
    explain_plan,
    total_scanned,
)

COLUMNS = ["id", "a", "b"]

values = st.one_of(
    st.none(),
    st.integers(-2, 2),
    st.booleans(),
    st.sampled_from([1.0, "x", "y", [1], [1, 2]]),
)
rows = st.lists(
    st.fixed_dictionaries({"id": st.integers(0, 5), "a": values, "b": values}),
    max_size=12,
)

# Each alias ``t`` is the scan alias; "t.a" shadows a pass-through name, and
# a repeated output name keeps its first position and its last value.
items = st.sampled_from(
    [
        ProjectItem(Col("a")),
        ProjectItem(Col("b", "t")),
        ProjectItem(Col("id")),
        ProjectItem(Lit(1)),
        ProjectItem(Col("b"), "a"),
        ProjectItem(Col("b"), "t.a"),
        ProjectItem(Func("COALESCE", (Col("a"), Col("b")))),
        ProjectItem(Func("CONCAT", (Col("a"), Lit("/"), Col("b")))),
    ]
)
scans = st.sampled_from(
    [Table("t"), Select(Table("t"), BinOp("!=", Col("id"), Lit(3)))]
)


def _db(data: list[dict]) -> Database:
    catalog = Catalog()
    catalog.define("t", COLUMNS, key=("id",))
    db = Database(catalog)
    db.insert_many("t", data)
    return db


def _query(scan, chosen, limit):
    query = Distinct(Project(scan, tuple(chosen)))
    return query if limit is None else Limit(query, limit)


def _shown(rows):
    # ``repr`` tells 1 from True from 1.0, and keeps each row's key order.
    return [repr(list(row.items())) for row in rows]


def _fused(db: Database, query) -> ColumnarPipeline:
    db.columnar_mode = "auto"
    plan = db.plan(query)
    pipeline = plan if isinstance(query, Distinct) else plan.children()[0]
    assert isinstance(pipeline, ColumnarPipeline) and pipeline.distinct
    return pipeline


def _executed(db: Database, plan):
    ctx = ExecContext(db, {})
    rows = list(plan.execute(ctx))
    return _shown(rows), total_scanned(explain_plan(plan, ctx))


@given(
    rows,
    scans,
    st.lists(items, min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(0, 3)),
)
@settings(max_examples=200, deadline=None)
def test_fused_distinct_equals_distinct_op_and_reference(data, scan, chosen, limit):
    db = _db(data)
    query = _query(scan, chosen, limit)
    pipeline = _fused(db, query)
    fused = _executed(db, db.plan(query))
    # The same pipeline without its δ stage, under a DistinctOp: the plan
    # this query lowered to before the fold, rows scanned included.
    unfused = copy.copy(pipeline)
    unfused.distinct = False
    unfused = DistinctOp(unfused)
    if limit is not None:
        unfused = LimitOp(unfused, limit)
    assert fused == _executed(db, unfused)

    db.columnar_mode = "off"
    assert isinstance(db.plan(query), DistinctOp if limit is None else LimitOp)
    assert fused[0] == _shown(db.execute(query))
    assert fused[0] == _shown(db.execute(query, engine="reference"))


def test_collisions_keep_the_first_occurrence():
    db = _db(
        [
            {"id": 1, "a": True, "b": [1]},
            {"id": 2, "a": 1, "b": [1]},
            {"id": 3, "a": 1.0, "b": [2]},
            {"id": 4, "a": None, "b": [1]},
            {"id": 5, "a": None, "b": [1]},
        ]
    )
    query = _query(Table("t"), [ProjectItem(Col("a")), ProjectItem(Col("b"))], None)
    _fused(db, query)
    rows = db.execute(query, engine="both")
    assert [(type(r["a"]), r["a"], r["b"]) for r in rows] == [
        (bool, True, [1]), (float, 1.0, [2]), (type(None), None, [1])
    ]
    assert list(rows[0]) == ["a", "b"]


def test_a_shadowing_output_name_is_kept_but_not_compared():
    # "t.a" replaces the pass-through column and, holding a ".", is left
    # out of the fingerprint: the rows differ only there, so one is kept.
    db = _db([{"id": 1, "a": 5, "b": 1}, {"id": 2, "a": 5, "b": 2}])
    chosen = [ProjectItem(Col("a")), ProjectItem(Col("b"), "t.a")]
    query = _query(Table("t"), chosen, None)
    _fused(db, query)
    rows = db.execute(query, engine="both")
    assert _shown(rows) == [repr([("a", 5)])]
    # The client never sees "t.a"; an operator above reads the first row's.
    above = Project(query, (ProjectItem(Col("a", "t"), "first"),))
    assert db.execute(above, engine="both") == [{"first": 1}]


def test_empty_table_and_constant_output():
    db = _db([])
    constant = _query(Table("t"), [ProjectItem(Lit(1))], None)
    assert db.execute(constant, engine="both") == []
    db.insert_many("t", [{"id": i, "a": i % 2} for i in range(4)])
    rows = db.execute(constant, engine="both")
    assert rows == [{"1": 1}]


def test_limit_over_distinct_stops_at_the_limit():
    db = _db([{"id": i, "a": i % 3} for i in range(9)])
    query = _query(Table("t"), [ProjectItem(Col("a"))], 2)
    _fused(db, query)
    assert [row["a"] for row in db.execute(query, engine="both")] == [0, 1]


def test_fused_explain_has_no_distinct_node():
    db = _db([{"id": i, "a": i % 3} for i in range(9)])
    query = _query(Table("t"), [ProjectItem(Col("a"))], None)
    explain = db.explain(query)
    assert explain["op"] == "Columnar" and explain["children"] == []
    assert explain["detail"] == "scan t → π[a] → δ"
    assert explain["rows_out"] == 3 and explain["rows_scanned"] == 9


def test_distinct_over_anything_else_keeps_distinct_op():
    db = _db([{"id": i, "a": i % 3} for i in range(9)])
    db.columnar_mode = "off"
    query = _query(Table("t"), [ProjectItem(Col("a"))], None)
    assert isinstance(db.plan(query), DistinctOp)
    db.columnar_mode = "auto"
    # A bare table has no project head to fold into.
    assert isinstance(db.plan(Distinct(Table("t"))), DistinctOp)
