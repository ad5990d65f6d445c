"""Correlated index probes under OUTER APPLY.

The planner lowers an apply's right side knowing its outer scope — the
names every left row carries, matched or NULL-padded — so a selection
correlated with the left row (``σ[p.id = a.id](T)``) becomes an
:class:`IndexLookup` probed once per outer row instead of a scan.  Every
case here runs under ``engine="both"`` (planned ≡ reference), hand cases
first, then a seeded random sweep; the plan-shape tests pin the probe
without timing anything.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    Alias,
    BinOp,
    Catalog,
    Col,
    Lit,
    OuterApply,
    Project,
    ProjectItem,
    RelExpr,
    Select,
    Table,
    conjoin,
)
from repro.core import optimize_program
from repro.db import Connection, Database
from repro.db.engine import EngineError
from repro.db.physical import ApplyOp, FilterOp, IndexLookup, total_scanned
from repro.db.planner import guaranteed_names
from repro.interp import Interpreter
from repro.workloads import JOB_REPORT, jobportal_catalog, jobportal_database


def _eq(left, right):
    return BinOp("=", left, right)


def _apply(left: RelExpr, right: RelExpr, name: str | None = None) -> OuterApply:
    return OuterApply(left, right if name is None else Alias(right, name))


def _project(child: RelExpr, *items: tuple[Col, str | None]) -> Project:
    return Project(child, tuple(ProjectItem(expr, alias) for expr, alias in items))


def _count(child: RelExpr, name: str) -> Aggregate:
    return Aggregate(child, (), (AggItem(AggCall("count", None), name),))


def _ops(plan) -> list:
    found = [plan]
    for child in plan.children():
        found.extend(_ops(child))
    return found


def _applied_ops(plan) -> list:
    """Every operator on the right side of some apply in ``plan``."""
    return [op for apply in _ops(plan) if isinstance(apply, ApplyOp)
            for op in _ops(apply.right)]


def _probes(db: Database, query: RelExpr) -> list[IndexLookup]:
    return [op for op in _applied_ops(db.plan(query)) if isinstance(op, IndexLookup)]


def _both(db: Database, query: RelExpr, params=None):
    return db.execute(query, params, engine="both")


# ----------------------------------------------------------------------
# Fixtures


def _star(applicants: int, *, personal_every: int = 1) -> Database:
    """JobPortal's star schema; only every ``personal_every``-th applicant
    has a ``personal`` row."""
    db = Database(jobportal_catalog())
    for i in range(1, applicants + 1):
        mode = "online" if i % 3 else "paper"
        db.insert("applicants", {"applicantId": i, "applnMode": mode, "jobId": 7})
        if i % personal_every == 0:
            db.insert("personal", {"applicantId": i, "name": f"n{i}", "email": None})
        db.insert("feedback1", {"applicantId": i, "score1": i % 10})
        db.insert("feedback2", {"applicantId": i, "score2": (i * 7) % 10})
        if mode == "online":
            db.insert("qualifications", {"applicantId": i, "degree": f"d{i % 3}"})
    return db


def _projects(projects: int, participants: int) -> Database:
    """Projects and participants correlated on the non-key ``project_id``;
    projects past ``projects // 2`` have no participant at all."""
    catalog = Catalog()
    catalog.define("project", ["id", "name", "launched"], key=("id",))
    catalog.define("participant", ["id", "project_id", "role"], key=("id",))
    db = Database(catalog)
    for i in range(1, projects + 1):
        db.insert("project", {"id": i, "name": f"p{i}", "launched": i % 4 != 0})
    for j in range(1, participants + 1):
        db.insert(
            "participant",
            {"id": j, "project_id": j % max(projects // 2, 1) + 1, "role": j % 3},
        )
    return db


def _personal_of(outer: str = "a") -> RelExpr:
    return _project(
        Select(Table("personal", "p"), _eq(Col("applicantId", "p"), Col("applicantId", outer))),
        (Col("name", "p"), "c0"),
    )


def _participants_of(project: Col) -> RelExpr:
    return Select(Table("participant", "pt"), _eq(Col("project_id", "pt"), project))


# ----------------------------------------------------------------------
# Hand cases


class TestCorrelatedProbe:
    def test_key_correlation_probes_the_key_index(self):
        db = _star(30)
        query = _apply(Table("applicants", "a"), _personal_of(), "ap0")
        [probe] = _probes(db, query)
        assert (probe.name, probe.column) == ("personal", "applicantId")
        rows = _both(db, query)
        assert [row["c0"] for row in rows] == [f"n{i}" for i in range(1, 31)]

    def test_non_key_correlation_probes_an_auto_index(self):
        db = _projects(20, 60)
        assert not db.has_index("participant", "project_id")
        query = _apply(
            Table("project", "p"),
            _project(_participants_of(Col("id", "p")), (Col("role", "pt"), "r")),
            "ap0",
        )
        [probe] = _probes(db, query)
        assert (probe.name, probe.column) == ("participant", "project_id")
        rows = _both(db, query)
        assert len(rows) == 60 + 10  # every participant, plus 10 padded projects
        assert db.has_index("participant", "project_id")

    def test_count_over_empty_partition_is_zero(self):
        # Wilos #24: γ[COUNT(*)] per project over its participants.
        db = _projects(20, 60)
        query = Project(
            Select(
                _apply(
                    Table("project", "p"),
                    _count(
                        Alias(_project(_participants_of(Col("id", "p")),
                                       (Col("id", "pt"), None)), "w"),
                        "c0",
                    ),
                    "ap0",
                ),
                _eq(Col("launched", "p"), Lit(True)),
            ),
            (ProjectItem(Col("name")), ProjectItem(Col("c0"))),
        )
        assert len(_probes(db, query)) == 1
        counts = {row["name"]: row["c0"] for row in _both(db, query)}
        assert counts["p1"] == 6
        assert counts["p13"] == 0  # a launched project with no participant
        assert sum(counts.values()) == sum(
            6 for i in range(1, 11) if i % 4 != 0
        )

    def test_figure13_chain_with_outer_only_conjunct(self):
        db = _star(40)
        qualifications = Select(
            Alias(
                _project(
                    Select(Table("qualifications", "e"),
                           _eq(Col("applicantId", "e"), Col("applicantId", "a"))),
                    (Col("degree", "e"), None),
                ),
                "w",
            ),
            _eq(Col("applnMode", "a"), Lit("online")),
        )
        query = Table("applicants", "a")
        query = _apply(query, _personal_of(), "ap0")
        for n, table in ((1, "feedback1"), (2, "feedback2")):
            query = _apply(
                query,
                _project(
                    Select(Table(table, "f"),
                           _eq(Col("applicantId", "f"), Col("applicantId", "a"))),
                    (Col(f"score{n}", "f"), f"c{n}"),
                ),
                f"ap{n}",
            )
        query = _apply(query, _project(qualifications, (Col("degree"), "c3")), "ap3")
        probes = _probes(db, query)
        assert sorted(p.name for p in probes) == [
            "feedback1", "feedback2", "personal", "qualifications"
        ]
        # The outer-only conjunct stays a filter above the probe.
        [gate] = [op for op in _applied_ops(db.plan(query))
                  if isinstance(op, FilterOp)]
        assert "applnMode" in str(gate.pred)
        rows = _both(db, Select(query, _eq(Col("jobId", "a"), Lit(7))))
        assert len(rows) == 40
        assert all((row["c3"] is None) == (row["applnMode"] == "paper") for row in rows)

    def test_null_correlation_values_match_nothing(self):
        db = _projects(6, 12)
        db.insert("project", {"id": None, "name": "orphan", "launched": True})
        db.insert("participant", {"id": 99, "project_id": None, "role": 0})
        query = _apply(
            Table("project", "p"),
            _count(_participants_of(Col("id", "p")), "n"),
            "ap0",
        )
        assert len(_probes(db, query)) == 1
        counts = {row["name"]: row["n"] for row in _both(db, query)}
        assert counts["orphan"] == 0
        assert sum(counts.values()) == 12  # the NULL-keyed participant joins nothing

    def test_unhashable_inner_values_fall_back_to_the_scan(self):
        db = _projects(6, 12)
        db.insert("participant", {"id": 50, "project_id": [1], "role": 0})
        query = _apply(
            Table("project", "p"),
            _project(_participants_of(Col("id", "p")), (Col("id", "pt"), "who")),
            "ap0",
        )
        assert len(_probes(db, query)) == 1
        rows = _both(db, query)
        assert db.index_on("participant", "project_id", auto=True) is None
        assert len(rows) == 12 + 3  # projects 4-6 are padded

    def test_unhashable_probe_values_fall_back_to_the_scan(self):
        db = _projects(6, 12)
        db.insert("project", {"id": [2], "name": "listy", "launched": True})
        query = _apply(
            Table("project", "p"),
            _count(_participants_of(Col("id", "p")), "n"),
            "ap0",
        )
        rows = _both(db, query)
        assert {row["name"]: row["n"] for row in rows}["listy"] == 0

    def test_empty_table_keeps_the_scan(self):
        # The scan of an empty table never evaluates the probe, so a name
        # no outer row carries cannot fail it; a lookup would evaluate it.
        db = _projects(4, 0)
        query = _apply(
            Table("project", "p"),
            _count(_participants_of(Col("budget", "p")), "n"),
            "ap0",
        )
        assert _probes(db, query) == []
        assert [row["n"] for row in _both(db, query)] == [0, 0, 0, 0]

    def test_apply_nested_in_a_right_side(self):
        db = _star(24, personal_every=2)
        inner = _apply(
            Select(Table("personal", "p"),
                   _eq(Col("applicantId", "p"), Col("applicantId", "a"))),
            _project(
                Select(Table("feedback1", "f"),
                       _eq(Col("applicantId", "f"), Col("applicantId", "p"))),
                (Col("score1", "f"), "c1"),
            ),
            "ap1",
        )
        query = _apply(Table("applicants", "a"), inner, "ap0")
        probes = _probes(db, query)
        # The nested probe sees the enclosing apply's scope too.
        assert {p.name for p in probes} == {"personal", "feedback1"}
        rows = _both(db, query)
        assert len(rows) == 24
        # A padded row carries no name of a nested apply (nothing to pad).
        assert sum(row.get("c1") is not None for row in rows) == 12

    def test_padded_row_pass_through_is_not_in_the_outer_scope(self):
        # SELECT * FROM applicants a
        #   OUTER APPLY (SELECT p.name AS c0 FROM personal p
        #                WHERE (p.applicantId = a.applicantId)) ap0
        #   OUTER APPLY (SELECT f.score1 AS c1 FROM feedback1 f
        #                WHERE (f.applicantId = p.applicantId)) ap1
        # Half the applicants have no personal row: their padded ap0 row
        # lacks the pass-through p.applicantId, so the reference resolves
        # it through the bare name — feedback1's own applicantId.
        db = _star(20, personal_every=2)
        feedback = _project(
            Select(Table("feedback1", "f"),
                   _eq(Col("applicantId", "f"), Col("applicantId", "p"))),
            (Col("score1", "f"), "c1"),
        )
        query = _apply(
            _apply(Table("applicants", "a"), _personal_of(), "ap0"), feedback, "ap1"
        )
        assert "p.applicantId" not in guaranteed_names(query.left, db.catalog)
        assert [p.name for p in _probes(db, query)] == ["personal"]
        rows = _both(db, query)
        # Ten matched applicants get their own score; ten padded ones get
        # every feedback row.
        assert len(rows) == 10 + 10 * 20


# ----------------------------------------------------------------------
# Plan shape


def _walk_explain(node):
    yield node
    for child in node["children"]:
        yield from _walk_explain(child)


class _RecordingConnection(Connection):
    def __init__(self, database):
        super().__init__(database)
        self.queries = []

    def execute_query(self, query, params=None):
        self.queries.append((query, params))
        return super().execute_query(query, params)


class TestPlanShape:
    def test_consolidated_jobportal_report_probes_every_applied_side(self):
        catalog = jobportal_catalog()
        report = optimize_program(JOB_REPORT, "report", catalog)
        assert report.consolidations
        db = jobportal_database(applicants=100, catalog=catalog)
        conn = _RecordingConnection(db)
        Interpreter(report.rewritten, conn).run("report", 7)
        [(query, params)] = conn.queries
        sides = [
            node for node in _walk_explain(db.explain(query, params))
            if node["op"] == "Alias" and node["detail"].startswith("ap")
        ]
        assert len(sides) == 4
        for side in sides:
            ops = [node["op"] for node in _walk_explain(side)]
            assert ops.count("IndexLookup") == 1 and "SeqScan" not in ops, ops

    def test_rows_scanned_is_linear_in_both_sides(self):
        n = m = 2000
        catalog = Catalog()
        catalog.define("o", ["id", "tag"], key=("id",))
        catalog.define("i", ["id", "oid", "val"], key=("id",))
        db = Database(catalog)
        db.insert_many("o", [{"id": k, "tag": k % 5} for k in range(n)])
        db.insert_many(
            "i", [{"id": k, "oid": (k * 7) % n, "val": k} for k in range(m)]
        )
        query = _apply(
            Table("o", "x"),
            _project(Select(Table("i", "y"), _eq(Col("oid", "y"), Col("id", "x"))),
                     (Col("val", "y"), "v")),
            "ap",
        )
        explain = db.explain(query)
        # A per-row rescan of the inner side touches n·m = 4,000,000 rows.
        assert total_scanned(explain) <= 3 * (n + m)


# ----------------------------------------------------------------------
# Seeded random sweep

#: Tables of the sweep: every one shares ``id`` (the key) and ``k`` (a
#: low-cardinality non-key column), and owns one private column, so bare
#: references collide on some names and not on others.
_SWEEP_TABLES = {"t0": "u0", "t1": "u1", "t2": "u2"}
_ALIASES = ["a", "b", "c", "d", "e", "g", "h"]


def _sweep_database(rng: random.Random) -> Database:
    catalog = Catalog()
    for table, private in _SWEEP_TABLES.items():
        catalog.define(table, ["id", "k", private], key=("id",))
    db = Database(catalog)
    for table, private in _SWEEP_TABLES.items():
        for i in range(1, rng.randint(0, 9) + 1):
            db.insert(
                table,
                {
                    "id": i,
                    "k": rng.choice([0, 1, 2, 3, None]),
                    private: rng.choice([0, 1, 2, 5, None]),
                },
            )
    if rng.random() < 0.15:  # an unhashable value defeats the index build
        table = rng.choice(list(_SWEEP_TABLES))
        db.insert(table, {"id": 100, "k": [1], _SWEEP_TABLES[table]: 1})
    return db


class _ApplyGen:
    """Random left-deep apply chains whose right sides correlate with any
    name the left side may carry: base columns, earlier outputs, and the
    qualified pass-through columns a padded row lacks."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def _ref(self, visible: list[tuple[str | None, str]]) -> Col:
        qualifier, name = self.rng.choice(visible)
        if qualifier is not None and self.rng.random() < 0.25:
            qualifier = None  # bare reference: may resolve by fallback
        return Col(name, qualifier)

    def _inner(self, aliases, visible):
        rng = self.rng
        table = rng.choice(list(_SWEEP_TABLES))
        alias = aliases.pop()
        columns = ["id", "k", _SWEEP_TABLES[table]]
        inner_col = Col(rng.choice(columns), alias if rng.random() < 0.8 else None)
        conjuncts = [_eq(inner_col, self._ref(visible))]
        if rng.random() < 0.3:
            conjuncts.append(_eq(Col(rng.choice(columns), alias), self._ref(visible)))
        if rng.random() < 0.3:
            conjuncts.append(BinOp(">", Col(rng.choice(columns), alias), Lit(0)))
        rng.shuffle(conjuncts)
        return table, alias, columns, Select(Table(table, alias), conjoin(*conjuncts))

    def query(self) -> RelExpr:
        rng = self.rng
        aliases = list(_ALIASES)
        rng.shuffle(aliases)
        table = rng.choice(list(_SWEEP_TABLES))
        alias = aliases.pop()
        visible = [(alias, c) for c in ("id", "k", _SWEEP_TABLES[table])]
        query: RelExpr = Table(table, alias)
        for n in range(rng.randint(1, 3)):
            _, inner_alias, columns, select = self._inner(aliases, visible)
            out = f"c{n}"
            roll = rng.random()
            if roll < 0.45:
                right = _project(select, (Col(rng.choice(columns), inner_alias), out))
            elif roll < 0.65:
                right = _count(select, out)
            elif roll < 0.8:
                gate = _eq(self._ref(visible), Lit(rng.choice([0, 1, 2])))
                right = _project(
                    Select(Alias(_project(select, (Col("id", inner_alias), None)), "w"),
                           gate),
                    (Col("id"), out),
                )
            else:
                nested_visible = visible + [(inner_alias, c) for c in columns]
                _, _, nested_columns, nested = self._inner(aliases, nested_visible)
                right = _apply(
                    select,
                    _project(nested, (Col(rng.choice(nested_columns)), out)),
                )
            name = f"ap{n}" if rng.random() < 0.8 else None
            query = _apply(query, right, name)
            visible = visible + [(None, out), (inner_alias, columns[0])]
            if name is not None:
                visible.append((name, out))
        if rng.random() < 0.3:
            query = Select(query, BinOp(">=", self._ref(visible), Lit(1)))
        return query


@pytest.mark.parametrize("seed", [3, 17, 29, 41, 58])
def test_random_applies_match_reference(seed):
    rng = random.Random(seed)
    generator = _ApplyGen(rng)
    valid = probed = 0
    for case in range(120):
        db = _sweep_database(rng)
        query = generator.query()
        try:
            db.execute(query, engine="reference")
        except (EngineError, TypeError):
            continue  # ill-formed on this instance: ambiguous name, list > int
        _both(db, query)
        valid += 1
        probed += bool(_probes(db, query))
    assert valid >= 90, valid
    assert probed >= 60, probed
