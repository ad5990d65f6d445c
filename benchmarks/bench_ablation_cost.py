"""Ablation — cost-based rewriting vs the Section 5.3 heuristic (App. C).

The paper's Figure 7(a) discussion: when a loop must fetch all rows anyway
(another variable needs them), extracting a separate aggregate query is
pure overhead.  The always-rewrite policy regresses there; the Section 5.3
all-or-nothing heuristic and the cost-based selection (``plan_rewrites``
under a deployment profile, with observed cardinalities) both decline.
On a cleanly extractable loop, cost-based and heuristic agree to rewrite.
"""

from conftest import record_table

from repro.core import ExtractOptions, extract_sql, optimize_program
from repro.db import Connection
from repro.interp import Interpreter
from repro.rewrites import plan_rewrites
from repro.workloads import sample, wilos_catalog, wilos_database

_CATALOG = wilos_catalog()

# Figure 7(a): the aggregate extracts but `pretty` (string building with an
# unsupported op) keeps the rows flowing to the client.
FIGURE7A = """
f() {
    q = executeQuery("from Project as p");
    agg = 0;
    pretty = null;
    for (t : q) {
        agg = agg + t.getBudget();
        pretty = t.getName().substring(0, 3);
    }
    return new Pair(agg, pretty);
}
"""


def _simulate_always_rewrite(db):
    """What always-rewrite would cost on Figure 7(a): the loop still runs
    (rows fetched for `pretty`) plus the separate aggregate query."""
    from repro.sqlparse import parse_query

    conn = Connection(db)
    conn.execute_query(parse_query("select * from project"))
    conn.execute_query(parse_query("select sum(budget) as agg from project"))
    return conn.stats.simulated_time_ms


def _simulate_keep(db):
    from repro.sqlparse import parse_query

    conn = Connection(db)
    conn.execute_query(parse_query("select * from project"))
    return conn.stats.simulated_time_ms


def test_cost_based_declines_figure7a(benchmark):
    db = wilos_database(scale=200, catalog=_CATALOG)

    def decide():
        report = extract_sql(FIGURE7A, "f", _CATALOG)
        return plan_rewrites(report, _CATALOG, "local", database=db)

    plan = benchmark(decide)
    [choice] = plan.choices
    declined = choice.chosen.kind == "as-written"
    keep = _simulate_keep(db)
    always = _simulate_always_rewrite(db)
    record_table(
        "Ablation — Figure 7(a): rewrite decision policies",
        ["policy", "decision", "simulated cost (ms)"],
        [
            ["always-rewrite", "extract agg anyway", f"{always:.3f}"],
            ["heuristic (Sec 5.3)", "keep loop", f"{keep:.3f}"],
            [
                "cost-based (App C)",
                "keep loop" if declined else "rewrite",
                f"{keep:.3f}",
            ],
        ],
    )
    assert declined, "cost-based must decline the extra query"
    for profile in ("local", "wan"):
        report = optimize_program(
            FIGURE7A, "f", _CATALOG, options=ExtractOptions(profile=profile)
        )
        assert not report.rewritten_loops, profile
    assert always > keep


def test_cost_based_agrees_on_clean_aggregation(benchmark):
    db = wilos_database(scale=200, catalog=_CATALOG)
    clean = sample(9)  # totalBudget: pure sum

    def decide():
        report = extract_sql(clean.source, clean.function, _CATALOG)
        return plan_rewrites(report, _CATALOG, "local", database=db)

    plan = benchmark(decide)
    [choice] = plan.choices
    assert choice.chosen.kind == "pushdown", "pure aggregation must be rewritten"

    # And the rewrite actually wins at runtime.
    opt = optimize_program(
        clean.source, clean.function, _CATALOG, options=ExtractOptions(profile="local")
    )
    assert opt.rewritten_loops
    c1, c2 = Connection(db), Connection(db)
    r1 = Interpreter(opt.original, c1).run(clean.function)
    r2 = Interpreter(opt.rewritten, c2).run(clean.function)
    assert r1 == r2
    record_table(
        "Ablation — clean aggregation (Wilos #9): both policies rewrite",
        ["variant", "simulated ms", "bytes"],
        [
            ["original", f"{c1.stats.simulated_time_ms:.3f}", c1.stats.bytes_transferred],
            ["rewritten", f"{c2.stats.simulated_time_ms:.3f}", c2.stats.bytes_transferred],
        ],
    )
    assert c2.stats.simulated_time_ms < c1.stats.simulated_time_ms
