"""Columnar execution tests: plan shapes (tiny tables included),
aggregate corner parity, a three-way differential sweep (reference ≡
row-at-a-time ≡ columnar), and the scale-100 aggregation regression guard.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    CaseWhen,
    Catalog,
    Col,
    ExistsExpr,
    Func,
    Join,
    Limit,
    Lit,
    Param,
    Project,
    ProjectItem,
    Select,
    Sort,
    SortKey,
    Table,
)
from repro.db import (
    Database,
    EngineDivergenceError,
    EngineError,
)
from repro.db.columnar import (
    ColumnarHashJoin,
    ColumnarPipeline,
    ColumnarSemiJoin,
)
from repro.db.physical import (
    ExecContext,
    FilterOp,
    HashAggregate,
    HashJoin,
    HashSemiJoin,
    IndexLookup,
    LimitOp,
    ProjectOp,
    SeqScan,
    TopN,
)
from repro.db.planner import Planner

from tests.db.test_engine_differential import (
    _INT_LITERALS,
    _build_instance,
    _QueryGen,
)


def _make_db(rows: int = 200) -> Database:
    cat = Catalog()
    cat.define("t", ["id", "grp", "val", "label"], key=("id",))
    db = Database(cat)
    db.insert_many(
        "t",
        [
            {"id": i, "grp": i % 10, "val": float(i), "label": f"L{i % 4}"}
            for i in range(rows)
        ],
    )
    return db


def _forced(db, query, params=None):
    """Execute under columnar=force, assert parity with the reference."""
    expected = db.execute(query, params, engine="reference")
    db.columnar_mode = "force"
    try:
        actual = db.execute(query, params, engine="planned")
    finally:
        db.columnar_mode = "auto"
    assert actual == expected
    return actual


FILTER = Select(Table("t"), BinOp("=", Col("grp"), Lit(3)))
AGG = Aggregate(
    Table("t"),
    (Col("grp"),),
    (AggItem(AggCall("sum", Col("val")), "total"),),
)
PROJ = Project(
    Select(Table("t"), BinOp("<", Col("val"), Lit(50.0))),
    (ProjectItem(Col("id"), "i"), ProjectItem(Col("val"), "v")),
)


class TestPlanShapes:
    def test_big_filter_goes_columnar(self):
        db = _make_db(200)
        plan = Planner(db).lower(FILTER)
        assert isinstance(plan, ColumnarPipeline)
        assert db.execute(FILTER, engine="planned") == db.execute(
            FILTER, engine="reference"
        )

    def test_big_aggregate_goes_columnar(self):
        db = _make_db(200)
        assert isinstance(Planner(db).lower(AGG), ColumnarPipeline)

    def test_big_project_goes_columnar(self):
        db = _make_db(200)
        assert isinstance(Planner(db).lower(PROJ), ColumnarPipeline)

    def test_point_lookup_beats_columnar(self):
        # id is the declared key: probing one row beats scanning 200.
        db = _make_db(200)
        query = Select(Table("t"), BinOp("=", Col("id"), Lit(5)))
        assert isinstance(Planner(db).lower(query), IndexLookup)

    def test_bare_table_scan_stays_row(self):
        db = _make_db(200)
        db.columnar_mode = "force"
        assert isinstance(Planner(db).lower(Table("t")), SeqScan)

    def test_limit_over_filter_stays_row(self):
        # A pipeline consumes its whole input: it would defeat LIMIT's
        # early exit, so the child is lowered on the row path.
        db = _make_db(200)
        plan = Planner(db).lower(Limit(FILTER, 3))
        assert isinstance(plan, LimitOp)
        assert not isinstance(plan.child, ColumnarPipeline)

    def test_limit_over_aggregate_allows_columnar(self):
        # An aggregate consumes everything anyway: columnar is fine below.
        db = _make_db(200)
        plan = Planner(db).lower(Limit(AGG, 3))
        assert isinstance(plan, LimitOp)
        assert isinstance(plan.child, ColumnarPipeline)

    def test_force_mode_ignores_size_threshold(self):
        db = _make_db(5)
        assert isinstance(
            Planner(db, columnar="force").lower(FILTER), ColumnarPipeline
        )

    def test_off_mode_never_columnar(self):
        db = _make_db(500)
        assert isinstance(Planner(db, columnar="off").lower(FILTER), FilterOp)

    def test_star_projection_stays_row(self):
        db = _make_db(200)
        query = Project(Table("t"), (ProjectItem(Col("*")),))
        assert isinstance(Planner(db, columnar="force").lower(query), ProjectOp)

    def test_distinct_aggregate_stays_row(self):
        db = _make_db(200)
        query = Aggregate(
            Table("t"),
            (),
            (AggItem(AggCall("count", Col("grp"), distinct=True), "n"),),
        )
        assert isinstance(
            Planner(db, columnar="force").lower(query), HashAggregate
        )

    def test_foreign_qualifier_stays_row(self):
        # grp resolves outside the scan (qualifier is not the alias):
        # vectorized lookup could divert it, so the pipeline refuses.
        db = _make_db(200)
        query = Select(Table("t", "a"), BinOp("=", Col("grp", "other"), Lit(1)))
        assert isinstance(
            Planner(db, columnar="force").lower(query), FilterOp
        )


class TestAggregateCorners:
    def test_empty_input_global_aggregates(self):
        db = _make_db(0)
        for func in ("count", "sum", "min", "max", "avg"):
            query = Aggregate(
                Table("t"), (), (AggItem(AggCall(func, Col("val")), "a"),)
            )
            _forced(db, query)

    def test_filter_that_matches_nothing(self):
        db = _make_db(100)
        query = Aggregate(
            Select(Table("t"), BinOp("=", Col("grp"), Lit(99))),
            (),
            (AggItem(AggCall("sum", Col("val")), "s"),),
        )
        _forced(db, query)

    def test_null_skipping_and_count_star(self):
        cat = Catalog()
        cat.define("n", ["id", "v"], key=("id",))
        db = Database(cat)
        db.insert_many(
            "n",
            [{"id": i, "v": None if i % 3 == 0 else float(i)} for i in range(30)],
        )
        for func in ("count", "sum", "min", "max", "avg"):
            query = Aggregate(
                Table("n"), (), (AggItem(AggCall(func, Col("v")), "a"),)
            )
            _forced(db, query)
        star = Aggregate(Table("n"), (), (AggItem(AggCall("count", None), "a"),))
        _forced(db, star)

    def test_group_order_is_first_seen(self):
        cat = Catalog()
        cat.define("g", ["id", "k"], key=("id",))
        db = Database(cat)
        db.insert_many(
            "g",
            [{"id": i, "k": k} for i, k in enumerate([3, 1, 3, 2, 1, 9, 2, 3])],
        )
        query = Aggregate(
            Table("g"), (Col("k"),), (AggItem(AggCall("count", None), "n"),)
        )
        rows = _forced(db, query)
        assert [row["k"] for row in rows] == [3, 1, 2, 9]

    def test_unhashable_group_values(self):
        cat = Catalog()
        cat.define("u", ["id", "tags"], key=("id",))
        db = Database(cat)
        db.insert_many(
            "u",
            [
                {"id": i, "tags": [i % 2, "x"]}  # lists are unhashable
                for i in range(12)
            ],
        )
        query = Aggregate(
            Table("u"), (Col("tags"),), (AggItem(AggCall("count", None), "n"),)
        )
        _forced(db, query)

    def test_avg_uses_true_division(self):
        cat = Catalog()
        cat.define("a", ["id", "v"], key=("id",))
        db = Database(cat)
        db.insert_many("a", [{"id": 0, "v": 1}, {"id": 1, "v": 2}])
        query = Aggregate(Table("a"), (), (AggItem(AggCall("avg", Col("v")), "m"),))
        assert _forced(db, query) == [{"m": 1.5}]

    def test_unbound_parameter_raises_in_both_engines(self):
        db = _make_db(100)
        query = Select(Table("t"), BinOp("=", Col("grp"), Param("p")))
        with pytest.raises(EngineError):
            db.execute(query, {}, engine="reference")
        db.columnar_mode = "force"
        try:
            with pytest.raises(EngineError):
                db.execute(query, {}, engine="planned")
        finally:
            db.columnar_mode = "auto"


def _join_db(rows: int = 200) -> Database:
    """l(id, grp, val) ⟕ r(id, fk, amount): fk is NULL every 7th row,
    dangles sometimes, and repeats heavily so probe buckets have fan-out."""
    cat = Catalog()
    cat.define("l", ["id", "grp", "val"], key=("id",))
    cat.define("r", ["id", "fk", "amount"], key=("id",))
    db = Database(cat)
    db.insert_many(
        "l",
        [
            {"id": i, "grp": i % 10, "val": float(i)}
            for i in range(rows)
        ],
    )
    db.insert_many(
        "r",
        [
            {
                "id": i,
                "fk": None if i % 7 == 0 else (i * 3) % (rows + rows // 4),
                "amount": i % 50,
            }
            for i in range(rows)
        ],
    )
    return db


JOIN = Join(
    Table("l"), Table("r"), BinOp("=", Col("id", "l"), Col("fk", "r")), "inner"
)
LEFT_JOIN = Join(
    Table("l"), Table("r"), BinOp("=", Col("id", "l"), Col("fk", "r")), "left"
)


class TestJoinShapes:
    def test_big_join_goes_columnar(self):
        db = _join_db(200)
        plan = Planner(db).lower(JOIN)
        assert isinstance(plan, ColumnarHashJoin)

    def test_off_mode_join_stays_row(self):
        db = _join_db(500)
        assert isinstance(Planner(db, columnar="off").lower(JOIN), HashJoin)

    def test_inner_join_parity_null_and_duplicate_keys(self):
        _forced(_join_db(120), JOIN)

    def test_left_join_parity_pads_unmatched(self):
        rows = _forced(_join_db(120), LEFT_JOIN)
        # Every left row survives; unmatched ones carry NULL right columns.
        assert any(row["amount"] is None for row in rows)

    def test_multi_column_key_parity(self):
        db = _join_db(120)
        pred = BinOp(
            "AND",
            BinOp("=", Col("grp", "l"), Col("amount", "r")),
            BinOp("=", Col("id", "l"), Col("fk", "r")),
        )
        for kind in ("inner", "left"):
            query = Join(Table("l"), Table("r"), pred, kind)
            assert isinstance(
                Planner(db, columnar="force").lower(query), ColumnarHashJoin
            )
            _forced(db, query)

    def test_residual_predicate_parity(self):
        db = _join_db(120)
        pred = BinOp(
            "AND",
            BinOp("=", Col("id", "l"), Col("fk", "r")),
            BinOp("<", Col("amount", "r"), Col("val", "l")),
        )
        for kind in ("inner", "left"):
            query = Join(Table("l"), Table("r"), pred, kind)
            assert isinstance(
                Planner(db, columnar="force").lower(query), ColumnarHashJoin
            )
            _forced(db, query)

    def test_filters_below_join_parity(self):
        db = _join_db(120)
        query = Join(
            Select(Table("l"), BinOp("<", Col("grp"), Lit(7))),
            Select(Table("r"), BinOp(">", Col("amount"), Lit(10))),
            BinOp("=", Col("id", "l"), Col("fk", "r")),
            "left",
        )
        assert isinstance(
            Planner(db, columnar="force").lower(query), ColumnarHashJoin
        )
        _forced(db, query)

    def test_unhashable_build_key_falls_back(self):
        # List-valued keys break hashing: the vectorized build must hand
        # the whole join to its row fallback, which nested-loops it.
        cat = Catalog()
        cat.define("a", ["id", "k"], key=("id",))
        cat.define("b", ["id", "k"], key=("id",))
        db = Database(cat)
        db.insert_many("a", [{"id": i, "k": [i % 3]} for i in range(80)])
        db.insert_many("b", [{"id": i, "k": [i % 3]} for i in range(80)])
        query = Join(
            Table("a"), Table("b"), BinOp("=", Col("k", "a"), Col("k", "b")), "inner"
        )
        _forced(db, query)

    def test_join_runtime_fallback_below_min_rows(self):
        db = _join_db(200)
        plan = Planner(db).lower(JOIN)
        assert isinstance(plan, ColumnarHashJoin)
        db.clear("l")
        db.clear("r")
        db.insert_many("l", [{"id": i, "grp": i, "val": 1.0} for i in range(3)])
        db.insert_many(
            "r", [{"id": i, "fk": i % 2, "amount": i} for i in range(3)]
        )
        rows = list(plan.execute(ExecContext(db, {})))
        assert rows == db.execute(JOIN, engine="reference")

    def test_semi_and_anti_join_go_columnar(self):
        db = _join_db(200)
        for negated in (False, True):
            query = Select(
                Table("l"),
                ExistsExpr(
                    Select(
                        Table("r", "s"),
                        BinOp("=", Col("fk", "s"), Col("id", "l")),
                    ),
                    negated=negated,
                ),
            )
            plan = Planner(db, columnar="force").lower(query)
            assert isinstance(plan, ColumnarSemiJoin)
            _forced(db, query)

    def test_uncorrelated_exists_stays_row(self):
        # No join keys: the row HashSemiJoin keeps its one-row
        # short-circuit, which a vectorized build would lose.
        db = _join_db(200)
        query = Select(
            Table("l"),
            ExistsExpr(Select(Table("r", "s"), BinOp(">", Col("amount", "s"), Lit(10)))),
        )
        assert isinstance(
            Planner(db, columnar="force").lower(query), HashSemiJoin
        )
        _forced(db, query)


SORT = Sort(Table("r"), (SortKey(Col("amount"), False), SortKey(Col("id"), True)))
TOPN = Limit(SORT, 5)


class TestOrderShapes:
    def test_big_sort_goes_columnar(self):
        db = _join_db(200)
        plan = Planner(db).lower(SORT)
        assert isinstance(plan, ColumnarPipeline)

    def test_topn_goes_columnar(self):
        db = _join_db(200)
        assert isinstance(Planner(db).lower(TOPN), ColumnarPipeline)

    def test_off_mode_topn_stays_row(self):
        db = _join_db(500)
        assert isinstance(Planner(db, columnar="off").lower(TOPN), TopN)

    def test_sort_parity_with_nulls(self):
        db = _join_db(150)
        for ascending in (True, False):
            query = Sort(
                Table("r"),
                (SortKey(Col("fk"), ascending), SortKey(Col("id"), True)),
            )
            _forced(db, query)

    def test_topn_parity(self):
        db = _join_db(150)
        for count in (0, 1, 5, 1000):
            _forced(db, Limit(SORT, count))

    def test_sort_over_filter_parity(self):
        db = _join_db(150)
        query = Sort(
            Select(Table("r"), BinOp(">", Col("amount"), Lit(20))),
            (SortKey(Col("amount"), True), SortKey(Col("id"), False)),
        )
        _forced(db, query)

    def test_sort_on_expression_key_parity(self):
        db = _join_db(150)
        query = Sort(
            Table("r"),
            (
                SortKey(
                    CaseWhen(
                        BinOp("=", Col("fk"), Lit(None)),
                        Lit(0),
                        Func("LEAST", (Col("fk"), Lit(100))),
                    ),
                    True,
                ),
                SortKey(Col("id"), True),
            ),
        )
        _forced(db, query)

    def test_sort_runtime_fallback_below_min_rows(self):
        db = _join_db(200)
        plan = Planner(db).lower(TOPN)
        assert isinstance(plan, ColumnarPipeline)
        db.clear("r")
        db.insert_many(
            "r", [{"id": i, "fk": i, "amount": 9 - i} for i in range(4)]
        )
        rows = list(plan.execute(ExecContext(db, {})))
        assert rows == db.execute(TOPN, engine="reference")


#: The only row alternatives a plan-search group may list beside a
#: columnar candidate: index probes, which skip the scan a pipeline pays.
_INDEX_OPS = {"IndexLookup", "IndexNLJoin"}


@pytest.mark.parametrize("rows", [0, 1, 63])
def test_tiny_tables_lower_to_columnar(rows):
    """No small-table switch: in ``auto`` every supported scan shape lowers
    to a columnar operator at 0, 1 and 63 rows, the result matches the
    reference (and the row lowering) under ``engine="both"``, and no
    plan-search group costs a non-index row alternative beside a
    columnar one."""
    semi = Select(
        Table("l"),
        ExistsExpr(Select(Table("r", "s"), BinOp("=", Col("fk", "s"), Col("id", "l")))),
    )
    point_head = Project(
        Select(Table("t"), BinOp("=", Col("id"), Lit(0))),
        (ProjectItem(Col("val"), "v"),),
    )
    cases = [
        (_make_db(rows), FILTER, ColumnarPipeline),
        (_make_db(rows), AGG, ColumnarPipeline),
        (_make_db(rows), PROJ, ColumnarPipeline),
        (_join_db(rows), SORT, ColumnarPipeline),
        (_join_db(rows), TOPN, ColumnarPipeline),
        (_join_db(rows), JOIN, ColumnarHashJoin),
        (_join_db(rows), LEFT_JOIN, ColumnarHashJoin),
        (_join_db(rows), semi, ColumnarSemiJoin),
        (_make_db(rows), point_head, None),
    ]
    for db, query, expected_op in cases:
        plan = db.plan(query)
        if expected_op is not None:
            assert isinstance(plan, expected_op), (rows, query)
        else:
            # A head over a key probe may stay row — but only over the probe.
            assert isinstance(plan, ColumnarPipeline) or isinstance(
                plan.child, IndexLookup
            ), (rows, plan)
        for choice in db.last_plan_search["choices"]:
            ops = [choice["chosen"]] + [r["op"] for r in choice["rejected"]]
            if any(op.startswith("Columnar") for op in ops):
                row_ops = {op for op in ops if not op.startswith("Columnar")}
                allowed = _INDEX_OPS | ({"Project"} if expected_op is None else set())
                assert row_ops <= allowed, (rows, choice)
        assert db.execute(query, engine="both") == db.execute(
            query, engine="reference"
        )


class TestVectorScalars:
    def test_func_filter_parity(self):
        db = _make_db(150)
        query = Select(
            Table("t"),
            BinOp(">", Func("COALESCE", (Col("grp"), Lit(0))), Lit(4)),
        )
        assert isinstance(
            Planner(db, columnar="force").lower(query), ColumnarPipeline
        )
        _forced(db, query)

    def test_case_when_projection_parity(self):
        db = _make_db(150)
        query = Project(
            Table("t"),
            (
                ProjectItem(
                    CaseWhen(
                        BinOp("<", Col("grp"), Lit(5)),
                        Func("UPPER", (Col("label"),)),
                        Col("label"),
                    ),
                    "tag",
                ),
            ),
        )
        assert isinstance(
            Planner(db, columnar="force").lower(query), ColumnarPipeline
        )
        _forced(db, query)

    def test_unknown_function_raises_in_both_engines(self):
        db = _make_db(100)
        query = Project(
            Table("t"), (ProjectItem(Func("NOPE", (Col("id"),)), "x"),)
        )
        with pytest.raises(EngineError):
            db.execute(query, engine="reference")
        db.columnar_mode = "force"
        try:
            with pytest.raises(EngineError):
                db.execute(query, engine="planned")
        finally:
            db.columnar_mode = "auto"


class TestPlanSearch:
    def test_breadcrumbs_record_rejected_alternatives(self):
        # A registered index on the join column makes the index
        # nested-loop join a real alternative to the columnar hash join.
        db = _join_db(500)
        db.create_index("r", "fk")
        db.plan(JOIN)
        search = db.last_plan_search
        assert search is not None and search["choices"]
        join_choice = next(
            c for c in search["choices"] if c["label"].startswith("join(")
        )
        ops = {join_choice["chosen"]} | {r["op"] for r in join_choice["rejected"]}
        assert ops == {"ColumnarHashJoin", "IndexNLJoin"}
        rejected_ops = {r["op"] for r in join_choice["rejected"]}
        assert rejected_ops  # the loser is recorded alongside the winner
        assert join_choice["margin"] >= 0
        assert all(
            r["cost"] >= join_choice["cost"] for r in join_choice["rejected"]
        )

    def test_breadcrumbs_survive_plan_cache_hits(self):
        db = _join_db(500)
        db.plan(JOIN)
        first = db.last_plan_search
        db.last_plan_search = None
        db.plan(JOIN)  # cache hit must restore the recorded search
        assert db.last_plan_search is first

    def test_explain_carries_plan_search(self):
        db = _join_db(500)
        explain = db.explain(JOIN)
        assert explain["plan_search"] is db.last_plan_search
        assert explain["plan_search"]["choices"]


class TestPointSelectGate:
    def test_auto_mode_point_predicate_prefers_index(self):
        # Satellite regression: a key-equality predicate keeps ~1 row, so
        # auto mode must pick the O(1) probe even on a large table.
        db = _make_db(10_000)
        query = Select(Table("t"), BinOp("=", Col("id"), Lit(5)))
        assert isinstance(Planner(db).lower(query), IndexLookup)

    def test_non_point_predicate_still_goes_columnar(self):
        db = _make_db(10_000)
        query = Select(Table("t"), BinOp("<", Col("val"), Lit(5000.0)))
        assert isinstance(Planner(db).lower(query), ColumnarPipeline)


@pytest.mark.parametrize("seed", [3, 17, 71, 113])
def test_columnar_matches_row_and_reference(seed):
    """≥200 random queries across the seeds: the columnar lowering, the
    row-at-a-time lowering, the ``auto`` cost-based lowering, and the
    reference evaluator all return exactly the same rows (values and
    order)."""
    rng = random.Random(seed)
    checked = 0
    while checked < 50:
        db, tables = _build_instance(rng)
        gen = _QueryGen(rng, tables)
        for _ in range(6):
            query = gen.query()
            params = {"p": rng.choice(_INT_LITERALS)}
            try:
                expected = db.execute(query, params, engine="reference")
            except EngineError:
                continue  # malformed by construction; not this test's topic
            db.columnar_mode = "off"
            row_rows = db.execute(query, params, engine="planned")
            db.columnar_mode = "force"
            col_rows = db.execute(query, params, engine="planned")
            # auto last: it runs the estimator's own choices, which off and
            # force both skip.
            db.columnar_mode = "auto"
            auto_rows = db.execute(query, params, engine="planned")
            assert row_rows == expected, f"seed={seed} query={query}"
            assert col_rows == expected, f"seed={seed} query={query}"
            assert auto_rows == expected, f"seed={seed} query={query}"
            checked += 1
    assert checked >= 50


def test_both_engine_mode_covers_columnar(seed=29):
    """engine="both" under columnar=force adds the columnar-vs-row
    cross-check on top of the oracle comparison; any divergence raises."""
    rng = random.Random(seed)
    db, tables = _build_instance(rng)
    db.default_engine = "both"
    db.columnar_mode = "force"
    gen = _QueryGen(rng, tables)
    for _ in range(40):
        query = gen.query()
        try:
            db.execute(query, {"p": 1})
        except EngineError as exc:
            assert not isinstance(exc, EngineDivergenceError), exc


def _best_of(fn, repeats: int, loops: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def test_scale_100_aggregation_not_slower_than_reference():
    """At scale 100 the planned engine (columnar via the cost choice)
    must at least match the reference evaluator on the aggregation
    workload (it was once a 0.73× regression)."""
    db = _make_db(100)
    assert isinstance(db.plan(AGG), ColumnarPipeline)
    db.execute(AGG, engine="planned")  # warm plan + column caches

    planned = lambda: db.execute(AGG, engine="planned")  # noqa: E731
    reference = lambda: db.execute(AGG, engine="reference")  # noqa: E731
    # Re-measure on a miss: absolute times are tiny and host noise real,
    # but the underlying gap is ~4x, so one clean attempt settles it.
    for _ in range(5):
        planned_ms = _best_of(planned, repeats=3, loops=20)
        reference_ms = _best_of(reference, repeats=3, loops=20)
        if planned_ms <= reference_ms:
            break
    assert planned_ms <= reference_ms
