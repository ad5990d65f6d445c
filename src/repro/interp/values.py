"""Runtime values for the MiniJava interpreter.

Rows coming back from the database are wrapped in :class:`Entity` so that
application code can use Java-bean style access (``t.getP1()``, ``t.score``)
and JDBC-style access (``rs.getString("name")``).  A row holds its plain
column names only: the engine keeps alias-qualified names inside the plan.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

from ..db import types
from ..db.types import Row


class Entity:
    """One result row with bean-style and JDBC-style accessors."""

    def __init__(self, row: Row):
        self.row = row

    def get(self, column: str) -> Any:
        if column in self.row:
            return self.row[column]
        raise KeyError(f"row has no column {column!r}; columns: {sorted(self.row)}")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Entity):
            return self.row == other.row
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.row.items())))

    def __repr__(self) -> str:
        return f"Entity({self.row})"


@lru_cache(maxsize=1024)
def getter_to_column(method: str) -> str | None:
    """Map a bean getter name to its column: ``getP1`` → ``p1``.

    Returns ``None`` when the method is not a getter.  Memoised on the
    name (the mapping is pure), so each call site resolves at dict speed.
    """
    if method.startswith("get") and len(method) > 3:
        rest = method[3:]
        return rest[0].lower() + rest[1:]
    if method.startswith("is") and len(method) > 2:
        rest = method[2:]
        return rest[0].lower() + rest[1:]
    return None


@lru_cache(maxsize=1024)
def setter_to_column(method: str) -> str | None:
    """Map a bean setter name to its column: ``setScore`` → ``score``."""
    if method.startswith("set") and len(method) > 3:
        rest = method[3:]
        return rest[0].lower() + rest[1:]
    return None


class ResultCursor:
    """A JDBC-style forward cursor over a query result (``rs.next()``)."""

    def __init__(self, rows: list[Row]):
        self._rows = rows
        self._index = -1

    def next(self) -> bool:
        self._index += 1
        return self._index < len(self._rows)

    @property
    def current(self) -> Entity:
        if not 0 <= self._index < len(self._rows):
            raise RuntimeError("cursor is not positioned on a row")
        return Entity(self._rows[self._index])

    def __iter__(self):
        return (Entity(row) for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)


class StringBuilder:
    """Minimal ``StringBuilder``: append + toString."""

    def __init__(self, initial: str = ""):
        self._parts = [initial] if initial else []

    def append(self, value: Any) -> "StringBuilder":
        self._parts.append(types.to_display(value))
        return self

    def to_string(self) -> str:
        return "".join(self._parts)

    def __repr__(self) -> str:
        return f"StringBuilder({self.to_string()!r})"
