"""The write path: ``Database.insert_many`` stores a batch as one write.

A batch must store exactly what inserting its rows one at a time stores
(catalog column order, NULL for missing columns, unknown keys dropped,
rows in batch order, the same hash-index contents), while costing one
invalidation per non-empty batch, none for an empty one, and touching
nothing when a row in it is malformed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import BinOp, Catalog, Col, Lit, Select, Table
from repro.db import Database, EngineError, UnknownTableError

COLUMNS = ["id", "a", "b"]
QUERY = Select(Table("t"), BinOp("=", Col("a"), Lit(1)))


def _db() -> Database:
    catalog = Catalog()
    catalog.define("t", COLUMNS, key=("id",))
    db = Database(catalog)
    db.create_index("t", "a")
    return db


def _index(db: Database) -> dict:
    return {
        value: [tuple(row.items()) for row in rows]
        for value, rows in db.index_on("t", "a").items()
    }


values = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["x", "y"]))
# Keys include a column the catalog does not know, which must be dropped,
# and any of the known ones may be missing, which must read as NULL.
rows = st.dictionaries(st.sampled_from(["id", "a", "b", "extra"]), values, max_size=4)
batches = st.lists(st.lists(rows, max_size=6), max_size=5)


@given(batches)
@settings(max_examples=150, deadline=None)
def test_batch_equals_per_row_inserts(data):
    batched, per_row = _db(), _db()
    expected: list[dict] = []
    for batch in data:
        batched.insert_many("t", batch)
        for row in batch:
            per_row.insert("t", row)
        expected.extend({c: row.get(c) for c in COLUMNS} for row in batch)
        assert batched.rows("t") == per_row.rows("t") == expected
        assert [list(row) for row in batched.rows("t")] == [COLUMNS] * len(expected)
        assert _index(batched) == _index(per_row)


def test_one_epoch_bump_per_non_empty_batch():
    db = _db()
    for size in (1, 3, 50):
        epoch = db._stats_epoch
        db.insert_many("t", [{"id": i, "a": i % 2} for i in range(size)])
        assert db._stats_epoch == epoch + 1


def test_empty_batch_keeps_the_cached_plan():
    db = _db()
    db.insert_many("t", [{"id": 1, "a": 1}])
    plan = db.plan(QUERY)
    epoch, hits = db._stats_epoch, db.plan_cache_hits
    db.insert_many("t", [])
    assert db._stats_epoch == epoch
    assert db.plan(QUERY) is plan
    assert db.plan_cache_hits == hits + 1


def test_unknown_table_raises_the_catalog_error():
    db = _db()
    for write in (
        lambda: db.insert("nope", {"id": 1}),
        lambda: db.insert_many("nope", [{"id": 1}]),
    ):
        with pytest.raises(KeyError, match="unknown table 'nope'"):
            write()


def test_clearing_an_unknown_table_raises_the_catalog_error():
    db = Database(Catalog())
    with pytest.raises(KeyError, match="unknown table 'nope'"):
        db.clear("nope")
    assert db.table_names() == []
    assert "nope" not in db.catalog


class _Row(dict):
    """A ``dict`` subclass: re-keyed like any row that is not a plain dict."""


@pytest.mark.parametrize(
    "row",
    [
        {"id": 1, "a": 2, "b": 3},  # catalog order: one dict copy
        {"b": 3, "id": 1, "a": 2},
        {"id": 1, "a": 2, "b": 3, "extra": 4},
        {"id": 1, "a": 2},
        _Row(id=1, a=2, b=3),
        _Row(b=3, a=2),
    ],
    ids=["catalog-order", "reordered", "extra-key", "missing-key",
         "subclass", "subclass-reordered"],
)
def test_copied_and_rekeyed_rows_are_stored_alike(row):
    row = type(row)(row)  # mutated below
    db = _db()
    db.insert_many("t", [row, dict(row)])
    expected = {c: row.get(c) for c in COLUMNS}
    assert db.rows("t") == [expected, expected]
    for stored in db.rows("t"):
        assert type(stored) is dict and list(stored) == COLUMNS
        assert stored is not row
    assert _index(db) == {row.get("a"): [tuple(expected.items())] * 2}
    row["a"] = "changed"  # the table keeps its own copies
    assert db.rows("t") == [expected, expected]


@pytest.mark.parametrize("bad", [None, 7, ["id", 1]])
def test_malformed_row_mid_batch_leaves_the_table_unchanged(bad):
    db = _db()
    db.insert_many("t", [{"id": 1, "a": 1}])
    plan = db.plan(QUERY)
    before, index, epoch = list(db.rows("t")), _index(db), db._stats_epoch
    with pytest.raises(AttributeError):
        db.insert_many(
            "t", [{"id": 2, "a": 1, "b": None}, {"id": 3, "a": 1}, bad, {"id": 4}]
        )
    assert db.rows("t") == before
    assert _index(db) == index
    assert db._stats_epoch == epoch
    assert db.plan(QUERY) is plan


@pytest.mark.parametrize(
    "entry",
    [
        lambda db: db.insert("nope", {"id": 1}),
        lambda db: db.insert_many("nope", [{"id": 1}]),
        lambda db: db.clear("nope"),
        lambda db: db.create_index("nope", "id"),
        lambda db: db.rows("nope"),
        lambda db: db.columns("nope"),
        lambda db: db.stats("nope"),
        lambda db: db.stats("nope", sample=0),
        lambda db: db.execute(Table("nope"), engine="planned"),
        lambda db: db.execute(Table("nope"), engine="reference"),
    ],
    ids=["insert", "insert_many", "clear", "create_index", "rows", "columns",
         "stats", "stats_sampled", "execute_planned", "execute_reference"],
)
def test_every_entry_point_raises_one_unknown_table_error(entry):
    db = _db()
    with pytest.raises(UnknownTableError, match="^unknown table 'nope'$") as raised:
        entry(db)
    assert isinstance(raised.value, EngineError)
    assert isinstance(raised.value, KeyError)
