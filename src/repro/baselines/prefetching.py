"""Prefetching baseline — Ramachandra & Sudarshan [19] (Experiments 2, 8).

Prefetching submits queries asynchronously as soon as their parameters are
available, overlapping network round trips with computation.  It does not
reduce data transfer or the number of queries — only latency:

* queries whose parameters are available when the driving result arrives
  can all be in flight together (their round-trip latencies overlap);
* a query whose parameters flow through a *condition* on the driving data
  (Figure 12's Q5: ``applnMode == "online"``) cannot be chained and pays
  its round trip serially — the paper's stated limitation.
"""

from __future__ import annotations

from ..db import Connection, Database
from ..sqlparse import parse_query


def prefetch_applicable(source, function) -> bool:
    """Prefetching applies whenever the code executes any query at all
    (the paper: "prefetching is possible in all cases we examined")."""
    from ..analysis import DB_READ_CALLS, function_index
    from ..lang import Call, parse_program

    program = parse_program(source) if isinstance(source, str) else source
    return any(
        isinstance(node, Call) and node.func in DB_READ_CALLS | {"executeScalar"}
        for info in function_index(program.function(function)).entries
        for node in info.facts.calls
    )


def run_prefetch_report(
    database: Database,
    connection: Connection,
    job_id: int,
    inner_queries: list[tuple[str, str, bool]],
) -> list:
    """Execute the Experiment 8 report with prefetching.

    All unconditional per-row queries are issued as one overlapped wave: the
    server and transfer costs accrue in full, but the round-trip latency is
    paid once for the wave instead of once per query.  Conditional queries
    cannot be prefetched and stay serial.
    """
    outer = connection.execute_query(
        parse_query("select * from applicants a where a.jobId = :j"), {"j": job_id}
    )

    output = []
    overlapped_queries = 0
    for row in outer:
        applicant = row["applicantId"]
        for table, column, conditional in inner_queries:
            query = parse_query(
                f"select {column} from {table} where applicantId = :a"
            )
            if conditional and row["applnMode"] != "online":
                continue
            before = connection.stats.simulated_time_ms
            rows = connection.execute_query(query, {"a": applicant})
            if not conditional:
                # The round trip overlapped with other in-flight prefetches:
                # refund its latency (it is charged once for the whole wave
                # below).
                connection.stats.simulated_time_ms -= connection.cost.round_trip_ms
                overlapped_queries += 1
            output.append(rows[0][column] if rows else None)
    if overlapped_queries:
        connection.stats.simulated_time_ms += connection.cost.round_trip_ms
    return output
