"""Simulated client/server database connection.

The paper's experiments (5–8) measure end-to-end time and network data
transfer of database applications.  This module reproduces the *client
boundary*: every ``executeQuery`` pays one network round trip, result rows
pay a per-row and per-byte transfer cost, and the server pays a per-row
scan/processing cost.  The clock is deterministic (simulated milliseconds),
so experiment shapes are reproducible independent of host load; wall time is
additionally measured by the pytest-benchmark harness.

Defaults are calibrated to a LAN client/server pair similar to the paper's
testbed (client and MySQL server on one machine): ~0.35 ms per round trip,
~100 MB/s effective transfer, and a light per-row server cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..algebra import (
    Aggregate,
    Distinct,
    Join,
    Limit,
    OuterApply,
    Project,
    RelExpr,
    Select,
    Sort,
    Table,
    walk_relational,
)
from ..sqlparse import bind_slots
from .engine import Database
from .physical import total_scanned
from .types import Row, row_size_bytes


@dataclass(frozen=True)
class CostParameters:
    """Tunable knobs of the simulated network and server."""

    round_trip_ms: float = 0.35
    bytes_per_ms: float = 100_000.0
    per_result_row_ms: float = 0.0008
    per_scanned_row_ms: float = 0.0004
    per_query_overhead_ms: float = 0.05


@dataclass
class ConnectionStats:
    """Accumulated accounting for one connection."""

    queries_executed: int = 0
    round_trips: int = 0
    rows_transferred: int = 0
    bytes_transferred: int = 0
    rows_scanned: int = 0
    simulated_time_ms: float = 0.0
    query_log: list[str] = field(default_factory=list)

    def snapshot(self) -> dict[str, Any]:
        return {
            "queries_executed": self.queries_executed,
            "round_trips": self.round_trips,
            "rows_transferred": self.rows_transferred,
            "bytes_transferred": self.bytes_transferred,
            "rows_scanned": self.rows_scanned,
            "simulated_time_ms": round(self.simulated_time_ms, 6),
        }


class Connection:
    """A client connection to a :class:`Database` with cost accounting."""

    def __init__(
        self,
        database: Database,
        cost: CostParameters | None = None,
        log_queries: bool = False,
    ):
        self.database = database
        self.cost = cost or CostParameters()
        self.stats = ConnectionStats()
        self._log_queries = log_queries

    def reset_stats(self) -> None:
        self.stats = ConnectionStats()

    def execute_query(
        self, query: RelExpr, params: dict[str, Any] | None = None
    ) -> list[Row]:
        """Execute a query, accounting one round trip plus transfer costs.

        With the planned engine, server-side work is charged from the
        executed physical plan's actual per-operator scan counts; the
        reference engine (no plan) falls back to the static estimate.
        """
        rows, explain = self.database.execute_explained(query, params)
        if explain is not None:
            scanned = total_scanned(explain)
        else:
            scanned = self._estimate_scanned_rows(query)
        transferred_bytes = sum(map(row_size_bytes, rows))

        self.stats.queries_executed += 1
        self.stats.round_trips += 1
        self.stats.rows_transferred += len(rows)
        self.stats.bytes_transferred += transferred_bytes
        self.stats.rows_scanned += scanned
        self.stats.simulated_time_ms += (
            self.cost.round_trip_ms
            + self.cost.per_query_overhead_ms
            + scanned * self.cost.per_scanned_row_ms
            + len(rows) * self.cost.per_result_row_ms
            + transferred_bytes / self.cost.bytes_per_ms
        )
        if self._log_queries:
            self.stats.query_log.append(str(bind_slots(query, params or {})))
        return rows

    def ship_temp_table(self, name: str, rows: list[Row]) -> None:
        """Create a temporary table server-side from client data.

        Paper Section 2: when a loop iterates a collection not derived from
        a query, "it is possible to create a temporary table at the
        database with the contents of the collection".  Costs one round
        trip plus the rows' transfer.
        """
        columns: list[str] = []
        for row in rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        self.database.create_table(name, columns or ["val"])
        self.database.insert_many(name, rows)

        shipped = sum(map(row_size_bytes, rows))
        self.stats.round_trips += 1
        self.stats.queries_executed += 1
        self.stats.bytes_transferred += shipped
        self.stats.simulated_time_ms += (
            self.cost.round_trip_ms
            + self.cost.per_query_overhead_ms
            + shipped / self.cost.bytes_per_ms
            + len(rows) * self.cost.per_result_row_ms
        )

    def _estimate_scanned_rows(self, query: RelExpr) -> int:
        """Server-side work estimate: sum of base-table cardinalities.

        Joins over indexes would scan less; the shape-level takeaway (server
        work grows with inputs, not with what crosses the wire) is preserved.
        """
        scanned = 0
        for node in walk_relational(query):
            if isinstance(node, Table):
                scanned += self.database.stats(node.name).row_count
            elif isinstance(node, OuterApply):
                # The applied side runs once per outer row: charge it again
                # (its base tables are counted once by the walk) scaled by
                # the outer cardinality estimate.
                outer_rows = self._estimate_scanned_rows(node.left)
                inner_tables = [
                    t for t in walk_relational(node.right) if isinstance(t, Table)
                ]
                for table in inner_tables:
                    # With the index a real server would use, each probe is
                    # logarithmic; approximate with a small constant per row.
                    scanned += max(1, outer_rows // 10)
        return scanned


def describe_plan(query: RelExpr) -> str:
    """One-line description of a query's operator mix (used in reports)."""
    counts: dict[str, int] = {}
    for node in walk_relational(query):
        label = {
            Table: "scan",
            Select: "σ",
            Project: "π",
            Join: "⋈",
            Aggregate: "γ",
            Sort: "τ",
            Distinct: "δ",
            Limit: "limit",
            OuterApply: "apply",
        }.get(type(node))
        if label:
            counts[label] = counts.get(label, 0) + 1
    return ", ".join(f"{k}×{v}" for k, v in sorted(counts.items()))
