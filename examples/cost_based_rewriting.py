"""Cost-based rewriting — the Appendix C sketch, working.

Shows the cost-based selector (``plan_rewrites``, Cobra-style) deciding per
loop whether using extracted SQL pays off, with cardinalities observed on a
live database.  The Figure 7(a) situation (an aggregate extracted from a
loop whose rows must be fetched anyway) is declined; a pure aggregation
loop is rewritten.  ``optimize_program`` applies the same verdict when
given a profile.

    python examples/cost_based_rewriting.py
"""

from repro.core import ExtractOptions, extract_sql, optimize_program
from repro.rewrites import AlternativeCostModel, get_profile, plan_rewrites
from repro.sqlparse import parse_query
from repro.workloads import sample, wilos_catalog, wilos_database

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


def _decide(source, function, catalog, database) -> None:
    report = extract_sql(source, function, catalog)
    for name, extraction in report.variables.items():
        print(f"  {name}: {extraction.status}  {extraction.reason or extraction.sql}")
    for profile in ("local", "wan"):
        plan = plan_rewrites(report, catalog, profile, database=database)
        for choice in plan.choices:
            print(f"  [{profile}] loop@{choice.site.loop_sid}: {choice.why}")
        rewritten = optimize_program(
            source, function, catalog, options=ExtractOptions(profile=profile)
        ).rewritten_loops
        print(f"  [{profile}] optimize_program rewrites loops {rewritten}")


def main() -> None:
    catalog = wilos_catalog()
    database = wilos_database(scale=200, catalog=catalog)

    print("=== Figure 7(a): aggregate + unextractable variable ===")
    _decide(FIGURE7A, "f", catalog, database)

    print("\n=== Wilos #9: pure aggregation ===")
    clean = sample(9)
    _decide(clean.source, clean.function, catalog, database)

    print("\n=== cost model cardinalities ===")
    model = AlternativeCostModel(get_profile("local"), database)
    for text in (
        "select * from project",
        "select * from project where launched = true",
        "select sum(budget) as s from project",
    ):
        query = parse_query(text)
        estimate = model.cardinality(query)
        print(f"  {text:55s} → ~{estimate.rows:,.0f} rows, "
              f"{model.query_cost_ms(query):.4f} ms")


if __name__ == "__main__":
    main()
