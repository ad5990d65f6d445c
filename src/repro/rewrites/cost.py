"""Costing the rewrite space under a deployment profile (Appendix C, Cobra).

:class:`AlternativeCostModel` estimates the simulated execution cost
(milliseconds, on the scale of the :class:`~repro.db.CostParameters`
accounting) of every alternative of a site.  Cardinalities come from the
live database when one is supplied, else from the profile; operators above
the base tables use standard selectivity defaults.  Every formula
decomposes into four components so the ``explain`` output can show *why* a
winner won:

``round_trip_ms``  serial network round trips × profile latency — linear in
                   ``round_trip_ms`` with the round-trip count as slope,
                   which is what makes selection provably monotone in
                   network latency (the property test pins this);
``transfer_ms``    result/parameter bytes over the wire;
``server_ms``      scan and materialisation work at the database;
``client_ms``      application-side iteration, hashing and probing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import (
    Aggregate,
    Alias,
    Distinct,
    Join,
    Limit,
    OuterApply,
    Project,
    RelExpr,
    Select,
    Sort,
    Table,
)
from .alternatives import (
    KIND_AS_WRITTEN,
    KIND_BATCHED,
    KIND_HYBRID,
    KIND_PREFETCH,
    KIND_PUSHDOWN,
    Alternative,
    Site,
)
from .profile import DeploymentProfile

#: Default join selectivity (fraction of the cross product retained).
JOIN_SELECTIVITY = 0.1
#: Fraction of rows surviving duplicate elimination.
DISTINCT_RETENTION = 0.6
#: Estimated bytes per transferred row of a projection's input.
ROW_BYTES = 40.0
#: Transferred bytes per shipped batch key (one scalar per row).
KEY_BYTES = 8.0


@dataclass(frozen=True)
class CostBreakdown:
    """Component-wise estimated cost of one alternative, in simulated ms."""

    round_trips: float
    round_trip_ms: float
    transfer_ms: float
    server_ms: float
    client_ms: float

    @property
    def total_ms(self) -> float:
        return self.round_trip_ms + self.transfer_ms + self.server_ms + self.client_ms

    def to_dict(self) -> dict:
        return {
            "round_trips": round(self.round_trips, 4),
            "round_trip_ms": round(self.round_trip_ms, 4),
            "transfer_ms": round(self.transfer_ms, 4),
            "server_ms": round(self.server_ms, 4),
            "client_ms": round(self.client_ms, 4),
            "total_ms": round(self.total_ms, 4),
        }


@dataclass(frozen=True)
class Estimate:
    """Cardinality and per-row width estimates for a query."""

    rows: float
    width_bytes: float = ROW_BYTES


class AlternativeCostModel:
    """The rewrite cost model, parameterised by a deployment profile.

    Table cardinalities come from the live database when one is supplied,
    else from the profile's ``table_rows``/``default_table_rows``; the
    selection selectivity comes from the profile.  Passing a
    :class:`~repro.db.CardinalityEstimator` upgrades selection
    selectivities from the profile's flat constant to statistics-driven
    estimates (NDV, histograms) against the live data.
    """

    def __init__(self, profile: DeploymentProfile, database=None, estimator=None):
        self.profile = profile
        self.cost = profile.cost
        self.database = database
        self.estimator = estimator

    # ------------------------------------------------------------------
    # Cardinalities

    def table_rows(self, table: str) -> float:
        if self.database is not None and table.lower() in {
            t.lower() for t in self.database.table_names()
        }:
            return float(len(self.database.rows(table)))
        return self.profile.cardinality(table)

    def cardinality(self, rel: RelExpr) -> Estimate:
        if isinstance(rel, Table):
            return Estimate(
                rows=self.table_rows(rel.name), width_bytes=self.profile.row_bytes
            )
        if isinstance(rel, Select):
            child = self.cardinality(rel.child)
            selectivity = self.profile.selectivity
            if self.estimator is not None:
                observed = self.estimator.select_selectivity(rel)
                if observed is not None:
                    selectivity = observed
            return Estimate(
                rows=child.rows * selectivity, width_bytes=child.width_bytes
            )
        if isinstance(rel, Project):
            child = self.cardinality(rel.child)
            width = ROW_BYTES * max(1, len(rel.items)) / 4
            return Estimate(rows=child.rows, width_bytes=width)
        if isinstance(rel, Join):
            left = self.cardinality(rel.left)
            right = self.cardinality(rel.right)
            if rel.kind == "cross":
                rows = left.rows * right.rows
            else:
                rows = max(left.rows, left.rows * right.rows * JOIN_SELECTIVITY)
            return Estimate(rows=rows, width_bytes=left.width_bytes + right.width_bytes)
        if isinstance(rel, OuterApply):
            left = self.cardinality(rel.left)
            return Estimate(rows=left.rows, width_bytes=left.width_bytes + ROW_BYTES / 4)
        if isinstance(rel, Aggregate):
            child = self.cardinality(rel.child)
            if not rel.group_by:
                return Estimate(rows=1.0, width_bytes=8.0)
            return Estimate(rows=max(1.0, child.rows**0.5), width_bytes=ROW_BYTES / 2)
        if isinstance(rel, Distinct):
            child = self.cardinality(rel.child)
            return Estimate(rows=child.rows * DISTINCT_RETENTION, width_bytes=child.width_bytes)
        if isinstance(rel, Limit):
            child = self.cardinality(rel.child)
            return Estimate(rows=min(child.rows, rel.count), width_bytes=child.width_bytes)
        if isinstance(rel, (Sort, Alias)):
            return self.cardinality(rel.child)
        return Estimate(rows=100.0)

    def scanned_rows(self, rel: RelExpr) -> float:
        if isinstance(rel, Table):
            return self.cardinality(rel).rows
        return sum(self.scanned_rows(child) for child in rel.children())

    # ------------------------------------------------------------------
    # Costs

    def _query_parts(self, rel: RelExpr) -> tuple[float, float, float]:
        """(server_ms, transfer_ms, result_rows) of one query execution."""
        estimate = self.cardinality(rel)
        scanned = self.scanned_rows(rel)
        server = (
            scanned * self.cost.per_scanned_row_ms
            + estimate.rows * self.cost.per_result_row_ms
        )
        transfer = estimate.rows * estimate.width_bytes / self.cost.bytes_per_ms
        return server, transfer, estimate.rows

    def query_cost_ms(self, rel: RelExpr) -> float:
        """End-to-end cost of executing one query: round trip + server scan
        + transfer of the result."""
        server, transfer, _ = self._query_parts(rel)
        return self.cost.round_trip_ms + self.cost.per_query_overhead_ms + server + transfer

    def _outer_parts(self, site: Site) -> tuple[float, float, float]:
        if site.outer_rel is not None:
            return self._query_parts(site.outer_rel)
        rows = self.profile.default_table_rows
        server = rows * (self.cost.per_scanned_row_ms + self.cost.per_result_row_ms)
        transfer = rows * self.profile.row_bytes / self.cost.bytes_per_ms
        return server, transfer, rows

    # ------------------------------------------------------------------
    # Per-alternative formulas

    def breakdown(self, site: Site, alternative: Alternative) -> CostBreakdown:
        kind = alternative.kind
        if kind == KIND_AS_WRITTEN:
            return self._cost_as_written(site)
        if kind == KIND_PUSHDOWN:
            return self._cost_pushdown(site, alternative)
        if kind == KIND_HYBRID:
            base = self._cost_as_written(site)
            push = self._cost_pushdown(site, alternative)
            return CostBreakdown(
                round_trips=base.round_trips + push.round_trips,
                round_trip_ms=base.round_trip_ms + push.round_trip_ms,
                transfer_ms=base.transfer_ms + push.transfer_ms,
                server_ms=base.server_ms + push.server_ms,
                client_ms=base.client_ms + push.client_ms,
            )
        if kind == KIND_BATCHED:
            return self._cost_lookup_rewrite(site, prefetch=False)
        if kind == KIND_PREFETCH:
            return self._cost_lookup_rewrite(site, prefetch=True)
        raise ValueError(f"unknown alternative kind {kind!r}")

    def _cost_as_written(self, site: Site) -> CostBreakdown:
        outer_server, outer_transfer, outer_rows = self._outer_parts(site)
        inner_count = len(site.inner_lookups) + site.residual_inner_queries
        round_trips = 1.0 + outer_rows * inner_count

        server = outer_server
        transfer = outer_transfer
        for lookup in site.inner_lookups:
            probe_scan = self.table_rows(lookup.table)
            server += outer_rows * (
                probe_scan * self.cost.per_scanned_row_ms
                + self.cost.per_result_row_ms
            )
            transfer += outer_rows * KEY_BYTES / self.cost.bytes_per_ms
        if site.residual_inner_queries:
            probe_scan = self.profile.default_table_rows
            server += outer_rows * site.residual_inner_queries * (
                probe_scan * self.cost.per_scanned_row_ms
                + self.cost.per_result_row_ms
            )
            transfer += (
                outer_rows * site.residual_inner_queries
                * KEY_BYTES / self.cost.bytes_per_ms
            )
        server += round_trips * self.cost.per_query_overhead_ms
        client = outer_rows * self.profile.client_row_ms
        return CostBreakdown(
            round_trips=round_trips,
            round_trip_ms=round_trips * self.cost.round_trip_ms,
            transfer_ms=transfer,
            server_ms=server,
            client_ms=client,
        )

    def _cost_pushdown(self, site: Site, alternative: Alternative) -> CostBreakdown:
        round_trips = float(len(alternative.extracted_rels))
        server = round_trips * self.cost.per_query_overhead_ms
        transfer = 0.0
        client = 0.0
        for rel in alternative.extracted_rels:
            rel_server, rel_transfer, rel_rows = self._query_parts(rel)
            server += rel_server
            transfer += rel_transfer
            client += rel_rows * self.profile.client_row_ms
        return CostBreakdown(
            round_trips=round_trips,
            round_trip_ms=round_trips * self.cost.round_trip_ms,
            transfer_ms=transfer,
            server_ms=server,
            client_ms=client,
        )

    def _cost_lookup_rewrite(self, site: Site, *, prefetch: bool) -> CostBreakdown:
        outer_server, outer_transfer, outer_rows = self._outer_parts(site)
        per_lookup_trips = 1.0 if prefetch else 2.0
        round_trips = (
            1.0
            + per_lookup_trips * len(site.inner_lookups)
            + outer_rows * site.residual_inner_queries
        )

        server = outer_server
        transfer = outer_transfer
        client = outer_rows * self.profile.client_row_ms
        for lookup in site.inner_lookups:
            inner_rows = self.table_rows(lookup.table)
            fetched = inner_rows if prefetch else min(outer_rows, inner_rows)
            server += (
                inner_rows * self.cost.per_scanned_row_ms
                + fetched * self.cost.per_result_row_ms
            )
            transfer += fetched * self.profile.row_bytes / self.cost.bytes_per_ms
            if not prefetch:
                # Shipping the key batch: server scans it during the join,
                # the wire carries one key per outer row.
                server += outer_rows * self.cost.per_scanned_row_ms
                transfer += outer_rows * KEY_BYTES / self.cost.bytes_per_ms
                client += outer_rows * self.profile.client_row_ms
            # Building and probing the HashMap.
            client += (fetched + outer_rows) * self.profile.client_row_ms
        if site.residual_inner_queries:
            probe_scan = self.profile.default_table_rows
            server += outer_rows * site.residual_inner_queries * (
                probe_scan * self.cost.per_scanned_row_ms
                + self.cost.per_result_row_ms
            )
        server += round_trips * self.cost.per_query_overhead_ms
        return CostBreakdown(
            round_trips=round_trips,
            round_trip_ms=round_trips * self.cost.round_trip_ms,
            transfer_ms=transfer,
            server_ms=server,
            client_ms=client,
        )
