"""Differential property test: planned engine ≡ reference evaluator.

Generates seeded random algebra queries over seeded random schemas and
instances (reusing the difftest schema/instance generators) and asserts
the planned engine returns *exactly* the reference evaluator's rows —
values, key sets, and order — for every query.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    CaseWhen,
    Col,
    Distinct,
    ExistsExpr,
    Func,
    Join,
    Limit,
    Lit,
    Param,
    Project,
    ProjectItem,
    RelExpr,
    Select,
    Sort,
    SortKey,
    Table,
    UnOp,
    conjoin,
)
from repro.db import Database
from repro.db.engine import EngineError
from repro.difftest.dbgen import generate_rows
from repro.difftest.generator import CaseGenerator, TableSpec

#: Literal pools matching the instance generator's value distributions, so
#: predicates actually select interesting subsets (and miss sometimes).
_INT_LITERALS = [0, 1, 2, 5, 10, 42, -1, 100, 7]
_STR_LITERALS = ["a", "b", "north", "south", "x", "zzz"]
_LIKE_PATTERNS = ["a%", "%th", "%or%", "x", "_", "%"]


def _build_instance(rng: random.Random) -> tuple[Database, list[TableSpec]]:
    tables = CaseGenerator(rng).schema()
    catalog_spec = {
        t.name: {"columns": list(t.columns), "key": list(t.key)} for t in tables
    }
    from repro.algebra import Catalog

    db = Database(Catalog.from_dict(catalog_spec))
    fk_ids: list[int] = []
    for table in tables:
        rows = generate_rows(rng, table, [], fk_ids)
        db.insert_many(table.name, rows)
        if not fk_ids:
            fk_ids = [row["id"] for row in rows]
    return db, tables


class _QueryGen:
    """Random algebra queries valid against a generated schema."""

    def __init__(self, rng: random.Random, tables: list[TableSpec]):
        self.rng = rng
        self.tables = tables

    def _column(self, table: TableSpec, alias: str | None = None) -> Col:
        name = self.rng.choice(table.columns)
        if alias is not None and self.rng.random() < 0.5:
            return Col(name, alias)
        return Col(name)

    def _int_column(self, table: TableSpec, alias: str | None = None) -> Col:
        candidates = ["id"] + table.int_columns
        if "fk" in table.columns:
            candidates.append("fk")
        name = self.rng.choice(candidates)
        if alias is not None and self.rng.random() < 0.5:
            return Col(name, alias)
        return Col(name)

    def _scalar(self, table: TableSpec, alias: str | None = None):
        """Integer-valued scalar expression: a column, a function call, or
        a CASE WHEN.  Everything stays integer-typed (NULLs aside) so
        comparisons built on top never mix types."""
        rng = self.rng
        roll = rng.random()
        col = self._int_column(table, alias)
        if roll < 0.45:
            return col
        if roll < 0.75:
            name = rng.choice(["COALESCE", "ABS", "GREATEST", "LEAST"])
            if name == "ABS":
                return Func(name, (col,))
            return Func(name, (col, Lit(rng.choice(_INT_LITERALS))))
        return CaseWhen(
            self._comparison(table, alias),
            col,
            Lit(rng.choice(_INT_LITERALS)),
        )

    def _comparison(self, table: TableSpec, alias: str | None = None):
        rng = self.rng
        roll = rng.random()
        if roll < 0.25 and table.str_columns:
            col = Col(rng.choice(table.str_columns))
            if rng.random() < 0.5:
                return BinOp("LIKE", col, Lit(rng.choice(_LIKE_PATTERNS)))
            return BinOp("=", col, Lit(rng.choice(_STR_LITERALS)))
        if rng.random() < 0.2:
            lhs = self._scalar(table, alias)
        else:
            lhs = self._int_column(table, alias)
        op = rng.choice(["=", "=", "=", "!=", "<", ">", "<=", ">="])
        if rng.random() < 0.1:
            return BinOp(op, lhs, Param("p"))
        return BinOp(op, lhs, Lit(rng.choice(_INT_LITERALS)))

    def _predicate(self, table: TableSpec, alias: str | None = None):
        rng = self.rng
        pred = self._comparison(table, alias)
        while rng.random() < 0.4:
            connective = rng.choice(["AND", "AND", "OR"])
            pred = BinOp(connective, pred, self._comparison(table, alias))
        if rng.random() < 0.1:
            pred = UnOp("NOT", pred)
        return pred

    def _exists(self, outer: TableSpec):
        """EXISTS over a second table, correlated on fk/id half the time."""
        rng = self.rng
        inner = rng.choice(self.tables)
        alias = "sub"
        inner_rel: RelExpr = Table(inner.name, alias)
        conjuncts = []
        if rng.random() < 0.7:
            conjuncts.append(self._comparison(inner, alias))
        if inner.name != outer.name and "fk" in inner.columns and rng.random() < 0.7:
            conjuncts.append(BinOp("=", Col("fk", alias), Col("id", outer.name)))
        pred = conjoin(*conjuncts)
        if pred is not None:
            inner_rel = Select(inner_rel, pred)
        if rng.random() < 0.3:
            inner_rel = Project(inner_rel, (ProjectItem(Col("id", alias), "iid"),))
        if rng.random() < 0.2:
            inner_rel = Limit(inner_rel, rng.choice([1, 2, 5]))
        return ExistsExpr(inner_rel, negated=rng.random() < 0.4)

    def query(self) -> RelExpr:
        rng = self.rng
        base_table = rng.choice(self.tables)
        rel: RelExpr = Table(base_table.name)

        # Optional join back to another table: the classic fk ↔ id shape
        # most of the time, otherwise arbitrary int-column equi-keys —
        # NULLable on both sides, heavily duplicated, and sometimes
        # multi-column — so join NULL/duplicate semantics get exercised.
        join_partner = None
        if len(self.tables) > 1 and rng.random() < 0.5:
            partner = rng.choice([t for t in self.tables if t is not base_table])
            kind = rng.choice(["inner", "inner", "left"])
            pred = None
            if rng.random() < 0.55:
                fk_holder, id_holder = (
                    (partner, base_table)
                    if "fk" in partner.columns
                    else (base_table, partner)
                )
                if "fk" in fk_holder.columns:
                    pred = BinOp(
                        "=", Col("id", id_holder.name), Col("fk", fk_holder.name)
                    )
            if pred is None:
                left_col = rng.choice(["id"] + base_table.int_columns)
                right_col = rng.choice(["id"] + partner.int_columns)
                pred = BinOp(
                    "=",
                    Col(left_col, base_table.name),
                    Col(right_col, partner.name),
                )
                if rng.random() < 0.4:
                    pred = BinOp(
                        "AND",
                        pred,
                        BinOp(
                            "=",
                            Col(
                                rng.choice(["id"] + base_table.int_columns),
                                base_table.name,
                            ),
                            Col(
                                rng.choice(["id"] + partner.int_columns),
                                partner.name,
                            ),
                        ),
                    )
            if rng.random() < 0.3:
                pred = BinOp(
                    "AND", pred, self._comparison(partner, partner.name)
                )
            rel = Join(rel, Table(partner.name), pred, kind)
            join_partner = partner

        if rng.random() < 0.65:
            conjuncts = [self._predicate(base_table, base_table.name)]
            if rng.random() < 0.35:
                conjuncts.append(self._exists(base_table))
            rel = Select(rel, conjoin(*conjuncts))

        shape = rng.random()
        if shape < 0.25:
            group_col = self._int_column(base_table)
            call = AggCall(
                rng.choice(["count", "sum", "min", "max", "avg"]),
                None if rng.random() < 0.3 else Col("id", base_table.name),
                distinct=rng.random() < 0.2,
            )
            group_by = () if rng.random() < 0.4 else (group_col,)
            rel = Aggregate(rel, group_by, (AggItem(call, "agg"),))
        elif shape < 0.5:
            items = tuple(
                ProjectItem(self._column(base_table), f"c{i}")
                for i in range(rng.randint(1, 3))
            )
            if rng.random() < 0.25:
                items = items + (
                    ProjectItem(self._scalar(base_table), "expr"),
                )
            if rng.random() < 0.2:
                items = items + (ProjectItem(Col("*")),)
            rel = Project(rel, items)

        if rng.random() < 0.4:
            sort_table = join_partner or base_table
            keys = tuple(
                SortKey(
                    self._scalar(sort_table)
                    if rng.random() < 0.2
                    else self._column(sort_table),
                    rng.random() < 0.6,
                )
                for _ in range(rng.randint(1, 2))
            )
            rel = Sort(rel, keys)
            if rng.random() < 0.5:
                rel = Limit(rel, rng.choice([0, 1, 2, 3, 10]))
        elif rng.random() < 0.2:
            rel = Distinct(rel)
        return rel


@pytest.mark.parametrize("seed", [11, 23, 47, 101])
def test_planned_matches_reference_on_random_queries(seed):
    """≥200 random queries in total across the seeds: planned == reference,
    exactly (rows, values, and order)."""
    rng = random.Random(seed)
    checked = 0
    while checked < 60:
        db, tables = _build_instance(rng)
        gen = _QueryGen(rng, tables)
        # Sometimes register indexes so index plans are exercised too.
        if rng.random() < 0.4:
            table = rng.choice(tables)
            db.create_index(table.name, rng.choice(["id"] + table.int_columns))
        for _ in range(6):
            query = gen.query()
            params = {"p": rng.choice(_INT_LITERALS)}
            try:
                expected = db.execute(query, params, engine="reference")
            except EngineError:
                continue  # malformed by construction; not this test's topic
            actual = db.execute(query, params, engine="planned")
            assert actual == expected, f"seed={seed} query={query}"
            checked += 1
    assert checked >= 60


def test_both_engine_mode_runs_clean(seed=5):
    """engine="both" executes the planned plan and cross-checks the oracle
    inline — a divergence would raise EngineDivergenceError here."""
    rng = random.Random(seed)
    db, tables = _build_instance(rng)
    db.default_engine = "both"
    gen = _QueryGen(rng, tables)
    for _ in range(40):
        query = gen.query()
        try:
            db.execute(query, {"p": 1})
        except EngineError as exc:
            # Only plain evaluation errors are tolerated; a divergence is a
            # planner bug and must fail the test.
            from repro.db import EngineDivergenceError

            assert not isinstance(exc, EngineDivergenceError), exc


def _small_db() -> Database:
    from repro.algebra import Catalog

    catalog = Catalog()
    catalog.define("applicants", ["id", "score"], key=("id",))
    catalog.define("t", ["id", "a"], key=("id",))
    catalog.define("u", ["id", "k"], key=("id",))
    db = Database(catalog)
    db.insert_many("applicants", [{"id": i, "score": 10 * i} for i in range(5)])
    db.insert("t", {"id": 1, "a": 1})
    db.insert("u", {"id": 2, "k": 5})
    return db


_ENGINES = [
    (engine, mode)
    for engine in ("planned", "reference", "both")
    for mode in ("auto", "off", "force")
]


@pytest.mark.parametrize("func", ["max", "min", "sum", "avg"])
@pytest.mark.parametrize("group_by", [(), (Col("id"),)])
@pytest.mark.parametrize("engine,mode", _ENGINES)
def test_an_aggregate_without_argument_fails_the_same_everywhere(
    func, group_by, engine, mode
):
    """Only COUNT(*) may omit its argument: any other call raises one
    EngineError on every engine and columnar mode, over rows or none."""
    db = _small_db()
    db.columnar_mode = mode
    call = AggItem(AggCall(func, None), "agg")
    for table in ("applicants", "u"):
        if table == "u":
            db.clear("u")
        query = Aggregate(Table(table), group_by, (call,))
        message = rf"^{func.upper()}\(\*\) has no argument"
        with pytest.raises(EngineError, match=message):
            db.execute(query, engine=engine)
    count = AggItem(AggCall("count", None), "n")
    assert db.execute(Aggregate(Table("applicants"), (), (count,)), engine=engine) == [
        {"n": 5}
    ]


@pytest.mark.parametrize("engine", ["planned", "reference"])
def test_limit_zero_still_raises_its_childs_error(engine):
    from repro.db import UnknownTableError

    db = _small_db()
    with pytest.raises(UnknownTableError, match="unknown table 'nope'"):
        db.execute(Limit(Table("nope"), 0), engine=engine)
    assert db.execute(Limit(Table("t"), 0), engine=engine) == []


@pytest.mark.parametrize("engine", ["planned", "reference", "both"])
def test_an_empty_star_projection_pads_its_own_columns(engine):
    """``t x LEFT JOIN π[*](σ[y.id = 99](u y)) ON y.k = x.a``: the unmatched
    row carries the star's columns as NULLs, as a matching row would carry
    them, and no ``*`` column."""
    db = _small_db()
    right = Project(
        Select(Table("u", "y"), BinOp("=", Col("id", "y"), Lit(99))),
        (ProjectItem(Col("*")),),
    )
    query = Join(
        Table("t", "x"), right, BinOp("=", Col("k", "y"), Col("a", "x")), kind="left"
    )
    assert db.execute(query, engine=engine) == [{"id": 1, "a": 1, "k": None}]
