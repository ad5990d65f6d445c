"""Value semantics for the in-memory database engine.

Implements SQL-style three-valued comparisons against NULL (``None``),
byte-size estimation for data-transfer accounting, and sort keys that place
NULLs consistently.
"""

from __future__ import annotations

from typing import Any

Row = dict
"""A database row: column name → value.  Joined rows may additionally carry
alias-qualified keys (``"b.rnd_id"``) so qualified column references resolve."""


def sql_eq(left: Any, right: Any) -> bool | None:
    """SQL equality: NULL compared with anything is unknown (``None``)."""
    if left is None or right is None:
        return None
    return left == right


def sql_compare(op: str, left: Any, right: Any) -> bool | None:
    """Evaluate a comparison with SQL NULL semantics."""
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == ">":
        return left > right
    if op == "<=":
        return left <= right
    if op == ">=":
        return left >= right
    raise ValueError(f"unknown comparison operator {op!r}")


def sql_and(left: bool | None, right: bool | None) -> bool | None:
    """Three-valued AND."""
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def sql_or(left: bool | None, right: bool | None) -> bool | None:
    """Three-valued OR."""
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def sql_not(value: bool | None) -> bool | None:
    """Three-valued NOT."""
    if value is None:
        return None
    return not value


def is_truthy(value: bool | None) -> bool:
    """WHERE-clause semantics: unknown filters the row out."""
    return value is True


def sql_avg(values: list) -> Any:
    """AVG over non-NULL values — the single source of division semantics.

    Uses Python true division, so integer inputs produce a float (matching
    MySQL, which returns a DECIMAL/float-typed average for integer columns,
    not an integer).  Returns NULL (``None``) over zero values.  Both the
    reference evaluator and the planned engine MUST call this helper so the
    engines can never disagree on rounding.
    """
    if not values:
        return None
    return sum(values) / len(values)


def to_display(value: Any) -> str:
    """Java-ish string conversion used by ``print``, string concat and the
    SQL ``CONCAT`` that stands for it: lowercase booleans, ``null`` for
    NULL, a whole double with one decimal."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return f"{value:.1f}"
    return str(value)


#: Wire sizes of the fixed-width exact types (subclasses take the slow path).
_FIXED_SIZES = {type(None): 1, bool: 1, int: 8, float: 8}


def value_size_bytes(value: Any) -> int:
    """Estimate the wire size of one value (for transfer accounting).

    The estimates follow typical JDBC/MySQL wire encodings closely enough
    for the experiments' *shape*: fixed-width numerics, length-prefixed
    strings.
    """
    size = _FIXED_SIZES.get(type(value))
    if size is not None:
        return size
    if type(value) is str:
        return 2 + (len(value) if value.isascii() else len(value.encode("utf-8")))
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return 2 + len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(value_size_bytes(v) for v in value)
    return 16


def row_size_bytes(row: Row) -> int:
    """Estimate the wire size of one row (unqualified columns only)."""
    size = 0
    for name, value in row.items():
        if "." not in name:
            size += _FIXED_SIZES.get(type(value)) or value_size_bytes(value)
    return size


class _NullsLast:
    """Sort key wrapper ordering NULLs after every non-NULL value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_NullsLast") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NullsLast) and self.value == other.value


def nulls_last_key(value: Any) -> _NullsLast:
    """Return a sort key that orders NULLs last (ascending)."""
    return _NullsLast(value)


class _Reversed:
    """Sort key wrapper inverting the order (for DESC keys)."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.key == other.key


def descending_key(value: Any) -> _Reversed:
    """Return a sort key for a DESC column (NULLs first, mirroring ASC)."""
    return _Reversed(nulls_last_key(value))
