"""Batching baseline — Guravannavar & Sudarshan [11] (Experiments 2 and 8).

Batching rewrites *parameterized iterative query invocation*: a loop that
executes a parameterized query per iteration is split so the parameters are
collected into a temporary parameter table and the query runs once as a
batched join.  Two pieces are reproduced here:

* :func:`batching_applicable` — the applicability test of Experiment 2
  (7/33 Wilos samples);
* :func:`run_batched_report` — the executable strategy for the Experiment 8
  star-schema report: one round trip to ship each parameter table plus one
  batched join per inner query.  The paper notes "benefit due to batching
  is limited because of the overhead of creating four parameter tables" —
  that overhead is modelled as the parameter-table round trips and inserts.
"""

from __future__ import annotations

from ..analysis import DB_READ_CALLS, DB_WRITE_CALLS, function_index
from ..db import Connection, Database, row_size_bytes
from ..lang import Call, Program, parse_program
from ..sqlparse import parse_query


def batching_applicable(source: str | Program, function: str) -> bool:
    """True when the function contains a cursor loop that issues a
    (parameterized) query per iteration — the batching precondition."""
    program = parse_program(source) if isinstance(source, str) else source
    # Reads and writes both batch (parameter-table rewrite).
    batched = DB_READ_CALLS | DB_WRITE_CALLS | {"executeScalar"}
    return any(
        isinstance(node, Call) and node.func in batched
        for info in function_index(program.function(function)).entries
        if info.cursor_loop is not None
        for node in info.facts.calls
    )


def run_batched_report(
    database: Database,
    connection: Connection,
    job_id: int,
    inner_queries: list[tuple[str, str, bool]],
) -> list:
    """Execute the Experiment 8 report with batching.

    ``inner_queries`` lists (table, value column, conditional?) for each
    per-row scalar query of the original program.  The strategy:

    1. one query for the driving result (applicants of the job);
    2. per inner query: one round trip shipping the parameter table
       (applicant ids) plus one batched join query returning all values.

    Returns the printed output in original order.
    """
    outer = connection.execute_query(
        parse_query("select * from applicants a where a.jobId = :j"), {"j": job_id}
    )
    ids = [row["applicantId"] for row in outer]

    # Parameter-table overhead: one round trip and the ids' bytes per inner
    # query (the paper's "overhead of creating four parameter tables").
    lookups: list[dict] = []
    for table, column, _conditional in inner_queries:
        param_bytes = sum(row_size_bytes({"id": i}) for i in ids)
        connection.stats.round_trips += 1
        connection.stats.queries_executed += 1
        connection.stats.bytes_transferred += param_bytes
        connection.stats.simulated_time_ms += (
            connection.cost.round_trip_ms
            + connection.cost.per_query_overhead_ms
            + param_bytes / connection.cost.bytes_per_ms
            + len(ids) * connection.cost.per_scanned_row_ms
        )
        rows = connection.execute_query(
            parse_query(
                f"select {table}.applicantId as pid, {table}.{column} as val "
                f"from {table}"
            )
        )
        lookups.append({row["pid"]: row["val"] for row in rows})

    output = []
    for row in outer:
        applicant = row["applicantId"]
        for (table, column, conditional), table_lookup in zip(inner_queries, lookups):
            if conditional and row["applnMode"] != "online":
                continue
            output.append(table_lookup.get(applicant))
    return output
