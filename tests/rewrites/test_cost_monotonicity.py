"""Property test: selection is monotone in network round-trip latency.

The cost model keeps ``round_trip_ms`` strictly linear in the profile's
latency, with the alternative's round-trip count as the slope and every
other component latency-independent.  Two consequences are pinned here
over ≥100 seeded synthetic sites:

* for fixed cardinalities, raising the latency never makes a chattier
  alternative (more round trips) *cheaper relative to* push-down — the
  cost gap to push-down is non-decreasing in latency;
* the selected winner's round-trip count never increases as latency
  grows (the winner walks down the lower envelope of lines sorted by
  slope).
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.algebra import BinOp, Col, Lit, Project, Select, Table
from repro.rewrites import AlternativeCostModel, select_alternative
from repro.rewrites.alternatives import (
    KIND_AS_WRITTEN,
    KIND_BATCHED,
    KIND_HYBRID,
    KIND_PREFETCH,
    KIND_PUSHDOWN,
    Alternative,
    InnerLookup,
    Site,
)
from repro.rewrites.profile import LOCAL

#: Latencies to sweep, strictly increasing (ms per round trip).
LATENCIES = (0.0, 0.05, 0.35, 2.0, 10.0, 40.0, 200.0)

SITE_COUNT = 120

_TABLES = ("orders", "tiers", "events", "players")


def _profile(rtt: float, table_rows: dict[str, float]):
    return replace(
        LOCAL,
        name=f"sweep-{rtt}",
        cost=replace(LOCAL.cost, round_trip_ms=rtt),
        table_rows=tuple(sorted(table_rows.items())),
    )


def _point_lookup(table: str) -> Project:
    return Project(
        Select(Table(table), BinOp("=", Col("k"), Lit(1))),
        (Col("v"),),
    )


def _synthetic_site(rng: random.Random, index: int) -> tuple[Site, dict]:
    """A random site with a random (but well-formed) rewrite space.

    Costing never looks at the alternative's program, only at its kind and
    extracted relations, so the programs can be omitted.
    """
    outer_table = rng.choice(_TABLES)
    outer_rel = rng.choice(
        [
            Table(outer_table),
            Select(Table(outer_table), BinOp(">", Col("v"), Lit(2))),
            None,  # cost model falls back to default_table_rows
        ]
    )
    lookup_count = rng.randint(0, 2)
    lookups = [
        InnerLookup(
            assign_sid=10 + i,
            target=f"v{i}",
            param=f"p{i}",
            key_getter="getK",
            table=rng.choice(_TABLES),
            key_column="k",
            value_column="v",
            rel=_point_lookup(rng.choice(_TABLES)),
        )
        for i in range(lookup_count)
    ]
    residual = rng.randint(0, 2)

    alternatives = [
        Alternative(
            kind=KIND_AS_WRITTEN, program=None, description="", identity=True
        ),
        Alternative(
            kind=KIND_PUSHDOWN,
            program=None,
            description="",
            extracted_rels=[
                _point_lookup(rng.choice(_TABLES))
                for _ in range(rng.randint(1, 3))
            ],
        ),
    ]
    if lookups:
        alternatives.append(
            Alternative(kind=KIND_BATCHED, program=None, description="")
        )
        alternatives.append(
            Alternative(kind=KIND_PREFETCH, program=None, description="")
        )
    if rng.random() < 0.4:
        alternatives.append(
            Alternative(
                kind=KIND_HYBRID,
                program=None,
                description="",
                extracted_rels=[_point_lookup(rng.choice(_TABLES))],
            )
        )

    site = Site(
        function=f"site{index}",
        loop_sid=1,
        variables=["acc"],
        outer_rel=outer_rel,
        inner_lookups=lookups,
        residual_inner_queries=residual,
        alternatives=alternatives,
    )
    table_rows = {t: float(rng.choice([5, 40, 300, 2000, 20000])) for t in _TABLES}
    return site, table_rows


def _breakdowns(site: Site, table_rows: dict, rtt: float):
    model = AlternativeCostModel(_profile(rtt, table_rows))
    return {alt.kind: model.breakdown(site, alt) for alt in site.alternatives}


def test_gap_to_pushdown_never_shrinks_with_latency():
    rng = random.Random(20260808)
    sites = [_synthetic_site(rng, i) for i in range(SITE_COUNT)]
    assert len(sites) >= 100

    for site, table_rows in sites:
        sweeps = [_breakdowns(site, table_rows, rtt) for rtt in LATENCIES]
        push_trips = sweeps[0][KIND_PUSHDOWN].round_trips
        for kind in sweeps[0]:
            if sweeps[0][kind].round_trips < push_trips:
                continue  # only chattier-than-pushdown alternatives
            gaps = [
                sweep[kind].total_ms - sweep[KIND_PUSHDOWN].total_ms
                for sweep in sweeps
            ]
            for lo, hi in zip(gaps, gaps[1:]):
                assert hi >= lo - 1e-9, (
                    f"{site.function}: {kind} got relatively cheaper than "
                    f"pushdown as latency rose: gaps {gaps}"
                )


def test_round_trip_counts_are_latency_invariant():
    """The slope of each cost line is the round-trip count; it must not
    itself depend on the latency being swept."""
    rng = random.Random(77)
    for index in range(20):
        site, table_rows = _synthetic_site(rng, index)
        sweeps = [_breakdowns(site, table_rows, rtt) for rtt in LATENCIES]
        for kind in sweeps[0]:
            trips = {sweep[kind].round_trips for sweep in sweeps}
            assert len(trips) == 1, (kind, trips)


def test_winner_round_trips_never_increase_with_latency():
    rng = random.Random(424242)
    flips = 0
    for index in range(SITE_COUNT):
        site, table_rows = _synthetic_site(rng, index)
        winner_trips = []
        winner_kinds = []
        for rtt in LATENCIES:
            model = AlternativeCostModel(_profile(rtt, table_rows))
            choice = select_alternative(site, model)
            winner_trips.append(choice.chosen.cost.round_trips)
            winner_kinds.append(choice.chosen.kind)
        for lo, hi in zip(winner_trips, winner_trips[1:]):
            assert hi <= lo + 1e-9, (
                f"site {index}: winner got chattier as latency rose: "
                f"{list(zip(LATENCIES, winner_kinds, winner_trips))}"
            )
        if len(set(winner_kinds)) > 1:
            flips += 1
    # The sweep must actually exercise selection: many sites flip winners
    # somewhere along the latency axis, or the property is vacuous.
    assert flips >= 10, f"only {flips} site(s) ever changed winner"
