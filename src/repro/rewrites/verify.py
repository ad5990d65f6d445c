"""Execute-and-compare verification of a site's whole rewrite space.

Costing says which alternative is *fastest*; this module checks the far
stronger claim that every member is *equivalent*: each alternative
program runs against a fresh database instance and must produce the same
return value, printed output and ``__out__`` stream as the as-written
program (the difftest oracle's comparison, reused verbatim).  The
difftest oracle calls into :func:`verify_alternatives` so fuzzing covers
the generator too, with the dedicated failing verdict kind
``alternative-diverged``.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from ..algebra import Catalog
from ..db import Connection, Database, EngineDivergenceError
from ..interp import Interpreter
from .alternatives import Site
from .profile import DeploymentProfile


@dataclass
class AlternativeCheck:
    """Outcome of executing one alternative against the as-written run."""

    loop_sid: int
    kind: str
    equivalent: bool
    detail: str = ""
    round_trips: int = 0
    simulated_time_ms: float = 0.0
    engine_divergence: bool = False


def seed_database(
    catalog: Catalog,
    rows_per_table: int = 30,
    seed: int = 0,
    engine: str = "both",
) -> Database:
    """A deterministic instance for a catalog: unique keys, aligned ranges.

    Key columns get a shuffled permutation of ``1..n`` (declared keys stay
    unique); every other column draws small integers from ``0..5`` so
    same-named columns across tables overlap (joins and point lookups hit).
    """
    rng = random.Random(seed)
    database = Database(catalog, default_engine=engine)
    for table in catalog.tables.values():
        key_values = list(range(1, rows_per_table + 1))
        rng.shuffle(key_values)
        rows = []
        for index in range(rows_per_table):
            row: dict = {}
            for column in table.columns:
                if column.name in table.key:
                    row[column.name] = key_values[index]
                else:
                    row[column.name] = rng.randint(0, 5)
            rows.append(row)
        database.insert_many(table.name, rows)
    return database


def run_observables(
    program,
    function: str,
    database: Database,
    args: tuple = (),
    profile: DeploymentProfile | None = None,
) -> tuple[Any, list[str], Any, Any]:
    """Run and collect everything the oracle compares.

    Returns ``(result, printed_output, out_stream, connection_stats)``.
    """
    cost = profile.cost if profile is not None else None
    connection = Connection(database, cost=cost)
    interpreter = Interpreter(program, connection)
    result = interpreter.run(function, *args)
    return result, interpreter.output, interpreter.last_out, connection.stats


def verify_alternatives(
    sites: list[Site],
    function: str,
    database_factory: Callable[[], Database],
    args: tuple = (),
    profile: DeploymentProfile | None = None,
) -> list[AlternativeCheck]:
    """Run every non-identity alternative of every site; compare to as-written.

    ``database_factory`` must return a *fresh* instance per call so runs
    cannot observe each other's side effects (temp tables).  The identity
    (as-written) member is the baseline, executed once per site.
    """
    from ..difftest.oracle import normalize  # function-level: avoids a cycle

    checks: list[AlternativeCheck] = []
    for site in sites:
        baseline = site.alternative("as-written")
        if baseline is None or len(site.alternatives) < 2:
            continue
        try:
            expected, expected_output, expected_out, _ = run_observables(
                baseline.program, function, database_factory(), args, profile
            )
        except Exception:
            # The program itself fails on this instance; nothing to compare.
            continue
        for alternative in site.alternatives:
            if alternative.identity:
                continue
            check = AlternativeCheck(loop_sid=site.loop_sid, kind=alternative.kind,
                                     equivalent=False)
            try:
                result, output, out_stream, stats = run_observables(
                    alternative.program, function, database_factory(), args, profile
                )
            except EngineDivergenceError:
                check.detail = (
                    f"planned vs reference engines disagree running the "
                    f"{alternative.kind} alternative:\n{traceback.format_exc()}"
                )
                check.engine_divergence = True
                checks.append(check)
                continue
            except Exception:
                check.detail = (
                    f"{alternative.kind} alternative raised "
                    f"(as-written succeeded):\n{traceback.format_exc()}"
                )
                checks.append(check)
                continue
            check.round_trips = stats.round_trips
            check.simulated_time_ms = stats.simulated_time_ms
            mismatches = []
            if normalize(result) != normalize(expected):
                mismatches.append(
                    f"return value: as-written={normalize(expected)!r} "
                    f"{alternative.kind}={normalize(result)!r}"
                )
            if output != expected_output:
                mismatches.append(
                    f"printed output: as-written={expected_output!r} "
                    f"{alternative.kind}={output!r}"
                )
            if normalize(out_stream) != normalize(expected_out):
                mismatches.append(
                    f"__out__ stream: as-written={normalize(expected_out)!r} "
                    f"{alternative.kind}={normalize(out_stream)!r}"
                )
            if mismatches:
                check.detail = "; ".join(mismatches)
            else:
                check.equivalent = True
            checks.append(check)
    return checks
