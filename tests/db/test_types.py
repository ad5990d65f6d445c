"""SQL value semantics tests (three-valued logic, sizes, sort keys)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import Catalog, Table
from repro.db import Database
from repro.db.types import (
    descending_key,
    is_truthy,
    nulls_last_key,
    row_size_bytes,
    sql_and,
    sql_compare,
    sql_eq,
    sql_not,
    sql_or,
    value_size_bytes,
)


class TestThreeValuedLogic:
    def test_eq_with_null_is_unknown(self):
        assert sql_eq(None, 1) is None
        assert sql_eq(1, None) is None
        assert sql_eq(None, None) is None

    def test_eq_plain(self):
        assert sql_eq(1, 1) is True
        assert sql_eq(1, 2) is False

    def test_compare_with_null(self):
        assert sql_compare("<", None, 1) is None
        assert sql_compare(">=", 1, None) is None

    def test_and_truth_table(self):
        assert sql_and(True, True) is True
        assert sql_and(True, False) is False
        assert sql_and(False, None) is False  # false dominates unknown
        assert sql_and(True, None) is None
        assert sql_and(None, None) is None

    def test_or_truth_table(self):
        assert sql_or(False, False) is False
        assert sql_or(True, None) is True  # true dominates unknown
        assert sql_or(False, None) is None
        assert sql_or(None, None) is None

    def test_not(self):
        assert sql_not(True) is False
        assert sql_not(False) is True
        assert sql_not(None) is None

    def test_is_truthy_where_semantics(self):
        assert is_truthy(True)
        assert not is_truthy(False)
        assert not is_truthy(None)  # unknown filters out

    @given(st.sampled_from([True, False, None]), st.sampled_from([True, False, None]))
    def test_de_morgan(self, a, b):
        assert sql_not(sql_and(a, b)) == sql_or(sql_not(a), sql_not(b))

    @given(st.sampled_from([True, False, None]), st.sampled_from([True, False, None]))
    def test_commutativity(self, a, b):
        assert sql_and(a, b) == sql_and(b, a)
        assert sql_or(a, b) == sql_or(b, a)


class TestSizes:
    def test_null_is_one_byte(self):
        assert value_size_bytes(None) == 1

    def test_int_and_float(self):
        assert value_size_bytes(42) == 8
        assert value_size_bytes(3.5) == 8

    def test_string_is_length_prefixed(self):
        assert value_size_bytes("abc") == 5

    def test_row_size_skips_qualified_duplicates(self):
        # The alias-qualified duplicate "b.x" stays inside the plan, so the
        # row the client is charged for holds none.
        catalog = Catalog()
        catalog.define("t", ["x", "y"])
        db = Database(catalog)
        db.insert("t", {"x": 1, "y": "ab"})
        [row] = db.execute(Table("t", "b"))
        assert row == {"x": 1, "y": "ab"}
        assert row_size_bytes(row) == 8 + 4

    @given(st.text(max_size=50))
    def test_string_size_monotone(self, text):
        assert value_size_bytes(text) >= 2

    def test_fast_path_matches_the_isinstance_formula(self):
        """The ``type(value)`` fast path must count exactly what the plain
        isinstance chain counts, subclasses and nesting included."""
        import enum
        import random

        def reference(value):
            if value is None or isinstance(value, bool):
                return 1
            if isinstance(value, (int, float)):
                return 8
            if isinstance(value, str):
                return 2 + len(value.encode("utf-8"))
            if isinstance(value, (list, tuple)):
                return sum(reference(v) for v in value)
            return 16

        class Level(enum.IntEnum):
            LOW = 1

        class Name(str):
            pass

        rng = random.Random(20)
        atoms = [None, True, False, 0, -7, 2**70, 1.5, float("inf"), "", "abc",
                 "héllo", "日本", Level.LOW, Name("x"), object(), b"raw", 3j,
                 {"k": 1}]

        def draw(depth=0):
            if depth < 3 and rng.random() < 0.25:
                items = [draw(depth + 1) for _ in range(rng.randrange(4))]
                return items if rng.random() < 0.5 else tuple(items)
            return rng.choice(atoms)

        for _ in range(500):
            value = draw()
            assert value_size_bytes(value) == reference(value), value
            row = {"a": value, "b": draw()}
            assert row_size_bytes(row) == reference(row["a"]) + reference(row["b"])
        assert value_size_bytes(object()) == 16

    class _Label(str):
        pass

    class _Count(int):
        pass

    _scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(),  # non-ASCII included
        st.text().map(_Label),
        st.integers().map(_Count),
    )
    _values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=4),
                           max_leaves=8)
    _keys = st.sampled_from(["a", "b", "name", "é"])

    @given(st.dictionaries(_keys, _values, max_size=6))
    def test_row_size_matches_the_per_value_sum(self, row):
        """The fast path counts what summing ``value_size_bytes`` over the
        row's values counts."""
        expected = sum(value_size_bytes(v) for v in row.values())
        assert row_size_bytes(row) == expected


class TestSortKeys:
    def test_nulls_last_ascending(self):
        values = [3, None, 1, None, 2]
        ordered = sorted(values, key=nulls_last_key)
        assert ordered == [1, 2, 3, None, None]

    def test_descending(self):
        values = [3, None, 1, 2]
        ordered = sorted(values, key=descending_key)
        assert ordered == [None, 3, 2, 1]

    @given(st.lists(st.one_of(st.none(), st.integers(-10, 10)), max_size=20))
    def test_nulls_last_total_order(self, values):
        ordered = sorted(values, key=nulls_last_key)
        non_null = [v for v in ordered if v is not None]
        assert non_null == sorted(non_null)
        # all Nones at the end
        if None in ordered:
            first_none = ordered.index(None)
            assert all(v is None for v in ordered[first_none:])
