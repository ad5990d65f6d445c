"""Auto-parameterised statement cache: ``parse_query(text, bindings)``.

A template plus its slot bindings must behave exactly like the literal
tree the text parses to without bindings: same rows under the three-way
``engine="both"`` check, same simulated-connection accounting, same
``query_log`` text.  The first half replays every query text the Wilos,
JobPortal and Matoso programs send (original and rewritten); the second
covers the literal positions that must stay part of a query's shape.
"""

from __future__ import annotations

import pytest

from repro.algebra import Aggregate, Catalog, Project
from repro.core import STATUS_SUCCESS, optimize_program
from repro.db import Connection, Database
from repro.interp import Interpreter
from repro.sqlparse import (
    SqlParseError,
    bind_slots,
    parse_query,
    register_aggregate_name,
    template_params,
)
from repro.sqlparse import parser as parser_module
from repro.workloads import (
    FIND_MAX_SCORE,
    FIND_MAX_SCORE_WITH_PLAYER,
    JOB_REPORT,
    WILOS_SAMPLES,
    jobportal_catalog,
    jobportal_database,
    matoso_catalog,
    matoso_database,
    wilos_catalog,
    wilos_database,
)


def _wilos_args(number: int) -> tuple:
    if number in (3, 4, 26):
        return (3,)
    if number == 20:
        return ("login2",)
    if number == 19:
        return ("login1", "pw1")
    return ()


_APPS = {
    "wilos": (
        wilos_catalog,
        lambda catalog: wilos_database(20, seed=5, catalog=catalog),
        [
            (s.source, s.function, _wilos_args(s.number))
            for s in WILOS_SAMPLES
            if s.expected == STATUS_SUCCESS
        ],
    ),
    "jobportal": (
        jobportal_catalog,
        lambda catalog: jobportal_database(12, seed=3, catalog=catalog),
        [(JOB_REPORT, "report", (7,))],
    ),
    "matoso": (
        matoso_catalog,
        lambda catalog: matoso_database(30, seed=4, catalog=catalog),
        [
            (FIND_MAX_SCORE, "findMaxScore", ()),
            (FIND_MAX_SCORE_WITH_PLAYER, "findMaxScoreWithPlayer", ()),
        ],
    ),
}


class _Recorder(Interpreter):
    """Records each query text a program sends with the values of the
    named parameters it binds."""

    def __init__(self, program, connection, sent: list):
        super().__init__(program, connection)
        self._sent = sent

    def _run_query(self, text, env):
        names = template_params(parse_query(text))
        self._sent.append((text, {name: env[name] for name in names}))
        return super()._run_query(text, env)


def _sent_queries(app: str) -> list[tuple[str, dict]]:
    make_catalog, make_database, programs = _APPS[app]
    catalog = make_catalog()
    database = make_database(catalog)
    sent: list = []
    for source, function, args in programs:
        report = optimize_program(source, function, catalog)
        for program in (report.original, report.rewritten):
            if program is not None:
                _Recorder(program, Connection(database), sent).run(function, *args)
    unique = {}
    for text, named in sent:
        unique.setdefault((text, tuple(sorted(named.items()))), named)
    return [(text, named) for (text, _), named in unique.items()]


@pytest.mark.parametrize("app", sorted(_APPS))
def test_sent_queries_match_their_literal_trees(app):
    sent = _sent_queries(app)
    make_catalog, make_database, _ = _APPS[app]
    database = make_database(make_catalog())
    database.default_engine = "both"
    literal = Connection(database, log_queries=True)
    templated = Connection(database, log_queries=True)
    templates = set()
    for text, named in sent:
        rows = literal.execute_query(parse_query(text), named)
        bindings: dict = {}
        template = parse_query(text, bindings)
        templates.add(id(template))
        assert template_params(template) == tuple(sorted(named))
        bindings.update(named)
        assert templated.execute_query(template, bindings) == rows, text
        assert templated.stats.snapshot() == literal.stats.snapshot(), text
    assert templated.stats.query_log == literal.stats.query_log
    if app != "matoso":  # Matoso's queries are constant texts
        assert len(templates) < len(sent)


# ----------------------------------------------------------------------
# Hand cases


@pytest.fixture
def db() -> Database:
    catalog = Catalog()
    catalog.define("t", ["id", "a", "name", "flag"], key=("id",))
    catalog.define("u", ["id", "a", "b"], key=("id",))
    database = Database(catalog, default_engine="both")
    names = ["ann", "it's", "bob", None, "al"]
    for i in range(1, 41):
        database.insert("t", {"id": i, "a": i % 7, "name": names[i % 5],
                              "flag": i % 3 == 0})
        database.insert("u", {"id": i, "a": i % 5, "b": i % 4})
    return database


def _same(db: Database, text: str) -> tuple:
    """Run ``text`` as a literal tree and as template + bindings on fresh
    connections; both must agree on rows, accounting and the query log."""
    literal = Connection(db, log_queries=True)
    templated = Connection(db, log_queries=True)
    rows = literal.execute_query(parse_query(text))
    bindings: dict = {}
    template = parse_query(text, bindings)
    assert templated.execute_query(template, bindings) == rows
    assert templated.stats.snapshot() == literal.stats.snapshot()
    assert templated.stats.query_log == literal.stats.query_log
    return template, bindings, rows


def test_literals_differing_in_predicates_share_one_template(db):
    first, bindings, _ = _same(db, "select name from t where a = 3 and name = 'ann'")
    second, other, _ = _same(db, "select name from t where a = 4 and name = 'bob'")
    assert first is second
    assert bindings == {"$0": 3, "$1": "ann"}
    assert other == {"$0": 4, "$1": "bob"}
    assert "$0" in str(first)


def test_select_list_literals_keep_their_names(db):
    template, bindings, rows = _same(db, "select 'x', 1, name from t where a = 2")
    assert bindings == {"$0": 2}
    assert set(rows[0]) >= {"'x'", "1", "name"}
    other, _, rows = _same(db, "select 'y', 1, name from t where a = 2")
    assert other is not template
    assert "'y'" in rows[0]


def test_limit_stays_in_the_shape(db):
    two, _, rows = _same(db, "select id from t where a > 1 order by id limit 2")
    three, _, more = _same(db, "select id from t where a > 1 order by id limit 3")
    assert two is not three
    assert (len(rows), len(more)) == (2, 3)


def test_negative_numbers_stay_literal(db):
    template, bindings, _ = _same(db, "select id from t where a > -5")
    assert bindings == {}
    other, _, _ = _same(db, "select id from t where a > -6")
    assert other is not template


def test_doubled_quote_is_unescaped_in_the_binding(db):
    _, bindings, rows = _same(db, "select id from t where name = 'it''s'")
    assert bindings == {"$0": "it's"}
    assert rows


@pytest.mark.parametrize("text", [
    "select id from t where flag = TRUE",
    "select id from t where flag = false",
    "select id from t where name is null",
    "select id from t where coalesce(name, NULL) = name",
])
def test_null_true_false_stay_literal(db, text):
    _, bindings, _ = _same(db, text)
    assert bindings == {}


def test_like_pattern_is_a_slot(db):
    first, bindings, rows = _same(db, "select name from t where name like 'a%'")
    second, _, others = _same(db, "select name from t where name like 'b%'")
    assert first is second
    assert bindings == {"$0": "a%"}
    assert {r["name"] for r in rows} == {"ann", "al"}
    assert {r["name"] for r in others} == {"bob"}


def test_on_and_having_literals_are_slots(db):
    text = ("select t.a, count(*) as n from t join u on t.a = u.a and u.b = {} "
            "group by t.a having n > {}")
    first, bindings, rows = _same(db, text.format(1, 2))
    second, _, _ = _same(db, text.format(3, 0))
    assert first is second
    assert bindings == {"$0": 1, "$1": 2}
    assert rows


def test_literal_inside_a_where_subquery(db):
    text = ("select id from t where exists (select 1 from u where u.a = t.a "
            "and u.b = {}) and a < (select max(b) from u where u.id > {})")
    first, bindings, rows = _same(db, text.format(2, 10))
    second, _, _ = _same(db, text.format(3, 30))
    assert first is second
    assert bindings == {"$0": 2, "$1": 10}
    assert rows


def test_custom_aggregate_registered_after_caching():
    """Registering an aggregate changes how ``name(x)`` parses, so the
    templates memoised before it must not be served after it."""
    text = "select stmtcacheagg(a) from t where id < {}"
    before = parse_query(text.format(5), {})
    assert isinstance(before, Project)  # a scalar function call
    register_aggregate_name("stmtcacheagg")
    bindings: dict = {}
    after = parse_query(text.format(6), bindings)
    assert isinstance(after, Aggregate)
    assert bind_slots(after, bindings) == parse_query(text.format(6))


def test_parse_errors_repeat_and_are_not_cached():
    text = "select id from t where a = 5 6"
    with pytest.raises(SqlParseError) as expected:
        parse_query(text)
    size = len(parser_module._TEMPLATES)
    for _ in range(2):
        with pytest.raises(SqlParseError) as raised:
            parse_query(text, {})
        assert str(raised.value) == str(expected.value)
        assert "'6'" in str(raised.value)
    assert len(parser_module._TEMPLATES) == size


def test_query_log_shows_literal_values(db):
    connection = Connection(db, log_queries=True)
    bindings: dict = {}
    template = parse_query("select id from t where name = 'bob' and a = :k", bindings)
    bindings["k"] = 2
    connection.execute_query(template, bindings)
    [entry] = connection.stats.query_log
    assert "'bob'" in entry and ":k" in entry and "$" not in entry


def test_named_parameters_are_listed_once_per_template():
    bindings: dict = {}
    template = parse_query("select id from t where a = :y and id = :x and b = 3", bindings)
    assert template_params(template) == ("x", "y")
    assert bindings == {"$0": 3}
    assert template_params(parse_query("select id from t where a = :z")) == ("z",)
