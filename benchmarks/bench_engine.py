"""Columnar vs. row vs. reference engine benchmark — emits ``BENCH_engine.json``.

Measures the three execution strategies on the operator shapes the planner
optimizes, at several scale factors:

* ``point_select`` — repeated key lookups (hash index vs. full scan); also
  measured under ``columnar_mode="auto"`` to document that the planner's
  selectivity gate routes point predicates to the index probe;
* ``join``        — equi-join (vectorized hash join vs. row hash join vs.
  nested loop);
* ``exists``      — correlated EXISTS (vectorized semi-join vs. row hash
  semi-join vs. per-row subquery);
* ``aggregation`` — grouped sum (vectorized fold vs. row fold vs.
  materialize+fold);
* ``topn``        — ORDER BY + LIMIT (columnar heap vs. row heap vs. full
  sort);
* ``stats_build`` — exact full-pass statistics vs. reservoir-sampled
  statistics (``Database.stats(sample=...)``), with per-column NDV
  estimate ratios so the speedup is shown not to come at accuracy's cost.

The matrix pins each engine explicitly: ``columnar`` runs the planned
engine with ``columnar_mode="force"``, ``row`` with ``"off"``, and
``reference`` is the tree-walking oracle.  Every measurement first asserts
all strategies return identical rows, so the numbers can never come from
diverging semantics.

The reference evaluator's join and EXISTS are O(n²), so each workload has
a reference cutoff scale; beyond it ``reference_ms`` is recorded as
``null`` and only columnar vs. row is compared.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [--smoke] [--out PATH] [--seed N]

``--seed`` drives the generated instances and is echoed into the BENCH
JSON (the shared convention across ``bench_engine.py`` / ``bench_scan.py``
/ ``bench_rewrites.py``), so a recorded result names the exact data it
measured.

Gates (exit 1 on failure):

* smoke — planned join beats reference at the largest smoke scale,
  columnar aggregation at least matches the row path at 10⁴, and the
  auto-mode point select stays near the row path (the selectivity gate);
  the point-select ratio, in both modes, is the median of
  ``POINT_GATE_ROUNDS`` interleaved auto/row rounds of ≥ 20 ms batches;
* full  — join ≥5× over reference at the largest scale the reference
  runs, columnar join ≥1.5× and top-N ≥1× over the row path at 10⁵,
  columnar aggregation ≥5× over the row path at 10⁵ and at least matching
  the reference at scale 100, sampled statistics ≥10× faster than the
  exact pass at 10⁶ with every NDV estimate within 2× of truth, and the
  auto-mode point select within 10% of the row path at 10⁴.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algebra import (
    AggCall,
    AggItem,
    Aggregate,
    BinOp,
    Catalog,
    Col,
    ExistsExpr,
    Join,
    Limit,
    Lit,
    Select,
    Sort,
    SortKey,
    Table,
)
from repro.db import Database
from repro.db.stats import STATS_SAMPLE_SIZE

SMOKE_SCALES = [50, 200, 10_000]
FULL_SCALES = [100, 1_600, 10_000, 100_000, 1_000_000]

#: Largest scale at which the reference evaluator still runs per workload
#: (its join/EXISTS are O(n²); point_select is 50 full scans).
REFERENCE_CUTOFFS = {
    "point_select": 10_000,
    "join": 2_000,
    "exists": 2_000,
    "aggregation": 100_000,
    "topn": 100_000,
}

#: Full-run gates.
FULL_MIN_JOIN_SPEEDUP = 5.0  # planned vs reference at the cutoff
FULL_MIN_JOIN_COL_VS_ROW = 1.5  # vectorized vs row hash join at 10⁵
FULL_MIN_TOPN_COL_VS_ROW = 1.0  # columnar heap vs row heap at 10⁵
FULL_COL_VS_ROW_GATE_SCALE = 100_000
FULL_MIN_COLUMNAR_AGG_SPEEDUP = 5.0  # columnar vs row at 10⁵
FULL_COLUMNAR_AGG_GATE_SCALE = 100_000
FULL_MIN_SCALE100_AGG_RATIO = 1.0  # columnar vs reference at scale 100
FULL_MIN_POINT_AUTO_VS_ROW = 0.9  # auto planner vs row at 10⁴
FULL_POINT_GATE_SCALE = 10_000
FULL_MIN_STATS_SPEEDUP = 10.0  # sampled vs exact build at 10⁶
FULL_STATS_GATE_SCALE = 1_000_000
STATS_NDV_TOLERANCE = 2.0  # sampled NDV within [truth/2, truth·2]
#: Smoke-run gates.
SMOKE_MIN_JOIN_SPEEDUP = 1.0
SMOKE_MIN_COLUMNAR_AGG_SPEEDUP = 1.0  # columnar vs row at 10⁴
SMOKE_COLUMNAR_AGG_GATE_SCALE = 10_000
SMOKE_MIN_POINT_AUTO_VS_ROW = 0.7  # noise headroom at tiny absolute times
SMOKE_POINT_GATE_SCALE = 10_000
#: The point-select gate ratio (both modes): the median, over this many
#: interleaved rounds, of row time / auto time, each side timing enough
#: repetitions of the lookup batch to last at least POINT_GATE_MIN_S.
POINT_GATE_ROUNDS = 5
POINT_GATE_MIN_S = 0.02

DEFAULT_SEED = 1234


def build_database(scale: int, seed: int = DEFAULT_SEED) -> Database:
    rng = random.Random(seed + scale)
    catalog = Catalog()
    catalog.define("bench_left", ["id", "grp", "val"], key=("id",))
    catalog.define("bench_right", ["id", "fk", "amount"], key=("id",))
    db = Database(catalog)
    db.insert_many(
        "bench_left",
        [
            {"id": i, "grp": i % 17, "val": rng.randint(0, 1000)}
            for i in range(1, scale + 1)
        ],
    )
    db.insert_many(
        "bench_right",
        [
            {"id": i, "fk": rng.randint(1, scale), "amount": rng.randint(0, 500)}
            for i in range(1, scale + 1)
        ],
    )
    return db


def workloads(scale: int) -> dict:
    """Query batch per workload; point_select is a batch of lookups."""
    point_ids = [1 + (i * 37) % scale for i in range(50)]
    return {
        "point_select": [
            Select(Table("bench_left"), BinOp("=", Col("id"), Lit(i)))
            for i in point_ids
        ],
        "join": [
            Join(
                Table("bench_left", "l"),
                Table("bench_right", "r"),
                BinOp("=", Col("id", "l"), Col("fk", "r")),
            )
        ],
        "exists": [
            Select(
                Table("bench_left", "l"),
                ExistsExpr(
                    Select(
                        Table("bench_right", "r"),
                        BinOp(
                            "AND",
                            BinOp("=", Col("fk", "r"), Col("id", "l")),
                            BinOp(">", Col("amount", "r"), Lit(400)),
                        ),
                    )
                ),
            )
        ],
        "aggregation": [
            Aggregate(
                Table("bench_right"),
                (Col("fk"),),
                (AggItem(AggCall("sum", Col("amount")), "total"),),
            )
        ],
        "topn": [
            Limit(
                Sort(
                    Table("bench_right"),
                    (SortKey(Col("amount"), ascending=False), SortKey(Col("id"))),
                ),
                5,
            )
        ],
    }


def _run_planned(db: Database, queries, mode: str):
    db.columnar_mode = mode
    try:
        return [db.execute(query, engine="planned") for query in queries]
    finally:
        db.columnar_mode = "auto"


def _time_planned(db: Database, queries, mode: str, repeats: int) -> float:
    db.columnar_mode = mode
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for query in queries:
                db.execute(query, engine="planned")
            best = min(best, time.perf_counter() - start)
    finally:
        db.columnar_mode = "auto"
    return best * 1000.0


def _batch_s(db: Database, queries, mode: str) -> float:
    """Seconds per run of ``queries``, repeated until ≥ POINT_GATE_MIN_S."""
    db.columnar_mode = mode
    try:
        loops, start = 0, time.perf_counter()
        while True:
            for query in queries:
                db.execute(query, engine="planned")
            loops += 1
            elapsed = time.perf_counter() - start
            if elapsed >= POINT_GATE_MIN_S:
                return elapsed / loops
    finally:
        db.columnar_mode = "auto"


def _point_auto_vs_row(db: Database, queries) -> float:
    """Median over ``POINT_GATE_ROUNDS`` interleaved rounds of the row path's
    time over the auto planner's, each side timed over ≥ POINT_GATE_MIN_S.

    Interleaving puts both modes under the same host load in every round
    (the order alternates, so neither always runs first), and the median
    drops a round that a neighbour's burst landed in.
    """
    ratios = []
    for round_ in range(POINT_GATE_ROUNDS):
        order = ("off", "auto") if round_ % 2 == 0 else ("auto", "off")
        seconds = {mode: _batch_s(db, queries, mode) for mode in order}
        ratios.append(seconds["off"] / seconds["auto"])
    return round(statistics.median(ratios), 2)


def _time_reference(db: Database, queries, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for query in queries:
            db.execute(query, engine="reference")
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def _ratio(numerator: float | None, denominator: float) -> float | None:
    if numerator is None:
        return None
    if denominator <= 0:
        return float("inf")
    return round(numerator / denominator, 2)


def _bench_stats(db: Database, scale: int, repeats: int) -> dict:
    """Exact vs. sampled statistics build on bench_right (fresh each time:
    explicit ``sample=`` bypasses the cache by design)."""

    def best_of(builder):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            builder()
            best = min(best, time.perf_counter() - start)
        return best * 1000.0

    exact_ms = best_of(lambda: db.stats("bench_right", sample=0))
    sampled_ms = best_of(
        lambda: db.stats("bench_right", sample=STATS_SAMPLE_SIZE)
    )
    exact = db.stats("bench_right", sample=0)
    sampled = db.stats("bench_right", sample=STATS_SAMPLE_SIZE)
    ndv_ratios = {
        column: round(
            sampled.column(column).ndv / max(exact.column(column).ndv, 1), 3
        )
        for column in ("id", "fk", "amount")
    }
    return {
        "scale": scale,
        "exact_ms": round(exact_ms, 3),
        "sampled_ms": round(sampled_ms, 3),
        "sampled_speedup": _ratio(exact_ms, sampled_ms),
        "sampled": sampled.sampled,  # False below the sample size: exact
        "ndv_ratio": ndv_ratios,
    }


def run(scales, repeats: int = 3, seed: int = DEFAULT_SEED) -> dict:
    results: dict = {name: [] for name in workloads(scales[0])}
    results["stats_build"] = []
    for scale in scales:
        db = build_database(scale, seed=seed)
        for name, queries in workloads(scale).items():
            with_reference = scale <= REFERENCE_CUTOFFS[name]

            # Semantics gate before any timing: columnar ≡ row (≡ reference).
            columnar_rows = _run_planned(db, queries, "force")
            row_rows = _run_planned(db, queries, "off")
            assert columnar_rows == row_rows, (
                f"COLUMNAR/ROW DIVERGENCE in {name} at scale {scale}"
            )
            if with_reference:
                reference_rows = [
                    db.execute(query, engine="reference") for query in queries
                ]
                assert row_rows == reference_rows, (
                    f"ENGINE DIVERGENCE in {name} at scale {scale}"
                )

            columnar_ms = _time_planned(db, queries, "force", repeats)
            row_ms = _time_planned(db, queries, "off", repeats)
            reference_ms = (
                _time_reference(db, queries, repeats) if with_reference else None
            )
            entry = {
                "scale": scale,
                "columnar_ms": round(columnar_ms, 3),
                "row_ms": round(row_ms, 3),
                "reference_ms": (
                    None if reference_ms is None else round(reference_ms, 3)
                ),
                "columnar_vs_row": _ratio(row_ms, columnar_ms),
                "columnar_vs_reference": _ratio(reference_ms, columnar_ms),
                "row_vs_reference": _ratio(reference_ms, row_ms),
            }
            if name == "point_select":
                # The planner's own choice: the selectivity gate must send
                # point predicates down the index path, not the pipeline.
                assert _run_planned(db, queries, "auto") == row_rows
                auto_ms = _time_planned(db, queries, "auto", repeats)
                entry["auto_ms"] = round(auto_ms, 3)
                entry["auto_vs_row"] = _ratio(row_ms, auto_ms)
            results[name].append(entry)
            ref_text = (
                "      (skipped)"
                if reference_ms is None
                else f"{reference_ms:11.2f} ms"
            )
            print(
                f"{name:>12} scale={scale:>8}: columnar {columnar_ms:9.2f} ms   "
                f"row {row_ms:9.2f} ms   reference {ref_text}"
            )
        stats_entry = _bench_stats(db, scale, repeats)
        results["stats_build"].append(stats_entry)
        print(
            f"{'stats_build':>12} scale={scale:>8}: exact "
            f"{stats_entry['exact_ms']:9.2f} ms   sampled "
            f"{stats_entry['sampled_ms']:9.2f} ms   "
            f"speedup {stats_entry['sampled_speedup']}"
        )
    return results


def _entry_at(entries, scale):
    for entry in entries:
        if entry["scale"] == scale:
            return entry
    return None


def _check(label: str, actual, required: float, failures: list) -> None:
    if actual is None or actual < required:
        failures.append(f"{label}: {actual} is below the required {required}")
    else:
        print(f"OK: {label} = {actual} (required ≥ {required})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small scales + CI gates"
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json", help="output JSON path"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="instance-generation seed, echoed into the BENCH JSON",
    )
    args = parser.parse_args(argv)

    scales = SMOKE_SCALES if args.smoke else FULL_SCALES
    results = run(scales, repeats=args.repeats, seed=args.seed)

    # The join-vs-reference gate compares at the largest scale the
    # reference still runs; the columnar-vs-row gates compare the two
    # planned paths at the dedicated (larger) gate scales.
    join_entries = [e for e in results["join"] if e["reference_ms"] is not None]
    join_ref_gate = join_entries[-1] if join_entries else None
    agg_gate_scale = (
        SMOKE_COLUMNAR_AGG_GATE_SCALE if args.smoke else FULL_COLUMNAR_AGG_GATE_SCALE
    )
    agg_gate = _entry_at(results["aggregation"], agg_gate_scale)
    scale100_agg = _entry_at(results["aggregation"], 100)
    point_gate_scale = (
        SMOKE_POINT_GATE_SCALE if args.smoke else FULL_POINT_GATE_SCALE
    )
    point_gate_ratio = _point_auto_vs_row(
        build_database(point_gate_scale, seed=args.seed),
        workloads(point_gate_scale)["point_select"],
    )
    join_row_gate = _entry_at(results["join"], FULL_COL_VS_ROW_GATE_SCALE)
    topn_row_gate = _entry_at(results["topn"], FULL_COL_VS_ROW_GATE_SCALE)
    stats_gate = _entry_at(results["stats_build"], FULL_STATS_GATE_SCALE)

    report = {
        "benchmark": "columnar vs row vs reference execution engine",
        "version": 3,
        "mode": "smoke" if args.smoke else "full",
        "seed": args.seed,
        "scales": scales,
        "reference_cutoffs": REFERENCE_CUTOFFS,
        "workloads": results,
        "gates": {
            "join_speedup_vs_reference": (
                None
                if join_ref_gate is None
                else join_ref_gate["columnar_vs_reference"]
            ),
            "join_gate_scale": (
                None if join_ref_gate is None else join_ref_gate["scale"]
            ),
            "join_columnar_vs_row": (
                None if join_row_gate is None else join_row_gate["columnar_vs_row"]
            ),
            "topn_columnar_vs_row": (
                None if topn_row_gate is None else topn_row_gate["columnar_vs_row"]
            ),
            "col_vs_row_gate_scale": FULL_COL_VS_ROW_GATE_SCALE,
            "columnar_agg_speedup_vs_row": (
                None if agg_gate is None else agg_gate["columnar_vs_row"]
            ),
            "columnar_agg_gate_scale": agg_gate_scale,
            "scale100_agg_vs_reference": (
                None
                if scale100_agg is None
                else scale100_agg["columnar_vs_reference"]
            ),
            "point_select_auto_vs_row": point_gate_ratio,
            "point_gate_scale": point_gate_scale,
            "point_gate_rounds": POINT_GATE_ROUNDS,
            "stats_sampled_speedup": (
                None if stats_gate is None else stats_gate["sampled_speedup"]
            ),
            "stats_ndv_ratio": (
                None if stats_gate is None else stats_gate["ndv_ratio"]
            ),
            "stats_gate_scale": FULL_STATS_GATE_SCALE,
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    failures: list[str] = []
    min_join = SMOKE_MIN_JOIN_SPEEDUP if args.smoke else FULL_MIN_JOIN_SPEEDUP
    _check(
        "join speedup vs reference",
        None if join_ref_gate is None else join_ref_gate["columnar_vs_reference"],
        min_join,
        failures,
    )
    min_agg = (
        SMOKE_MIN_COLUMNAR_AGG_SPEEDUP
        if args.smoke
        else FULL_MIN_COLUMNAR_AGG_SPEEDUP
    )
    _check(
        f"columnar aggregation speedup vs row at scale {agg_gate_scale}",
        None if agg_gate is None else agg_gate["columnar_vs_row"],
        min_agg,
        failures,
    )
    min_point = (
        SMOKE_MIN_POINT_AUTO_VS_ROW if args.smoke else FULL_MIN_POINT_AUTO_VS_ROW
    )
    _check(
        f"auto-mode point select vs row at scale {point_gate_scale}"
        f" (median of {POINT_GATE_ROUNDS} rounds)",
        point_gate_ratio,
        min_point,
        failures,
    )
    if not args.smoke:
        _check(
            "scale-100 aggregation columnar vs reference",
            None if scale100_agg is None else scale100_agg["columnar_vs_reference"],
            FULL_MIN_SCALE100_AGG_RATIO,
            failures,
        )
        _check(
            f"columnar join vs row at scale {FULL_COL_VS_ROW_GATE_SCALE}",
            None if join_row_gate is None else join_row_gate["columnar_vs_row"],
            FULL_MIN_JOIN_COL_VS_ROW,
            failures,
        )
        _check(
            f"columnar top-N vs row at scale {FULL_COL_VS_ROW_GATE_SCALE}",
            None if topn_row_gate is None else topn_row_gate["columnar_vs_row"],
            FULL_MIN_TOPN_COL_VS_ROW,
            failures,
        )
        _check(
            f"sampled stats speedup at scale {FULL_STATS_GATE_SCALE}",
            None if stats_gate is None else stats_gate["sampled_speedup"],
            FULL_MIN_STATS_SPEEDUP,
            failures,
        )
        if stats_gate is not None:
            for column, ratio in stats_gate["ndv_ratio"].items():
                if not (1 / STATS_NDV_TOLERANCE <= ratio <= STATS_NDV_TOLERANCE):
                    failures.append(
                        f"sampled NDV for {column}: ratio {ratio} outside "
                        f"[{1 / STATS_NDV_TOLERANCE}, {STATS_NDV_TOLERANCE}]"
                    )
                else:
                    print(
                        f"OK: sampled NDV ratio for {column} = {ratio} "
                        f"(within {STATS_NDV_TOLERANCE}×)"
                    )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
