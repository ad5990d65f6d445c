"""Cost-based rewriting tests (Appendix C): the rewrite cost model and the
single selector's loop verdicts."""

from repro.core import ExtractOptions, extract_sql, optimize_program
from repro.rewrites import AlternativeCostModel, plan_rewrites
from repro.rewrites.profile import LOCAL
from repro.sqlparse import parse_query
from repro.workloads import sample, wilos_catalog, wilos_database

_CATALOG = wilos_catalog()
PROFILES = ("local", "wan")

# The two Figure 7(a) shapes: an extractable aggregate beside a variable
# that keeps the rows flowing to the client.
FIGURE7A_SHAPES = (
    """
    f(pivot) {
        q = executeQuery("from Project as p");
        total = 0;
        weird = null;
        for (t : q) {
            total = total + t.getBudget();
            if (t.getName().compareTo(pivot) > 0) { weird = t.getName(); }
        }
        return new Pair(total, weird);
    }
    """,
    """
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
    """,
)


def _verdicts(source, function, database):
    """``{profile: [(chosen kind, as-written wins)]}`` with observed
    cardinalities, plus the loops ``optimize_program`` rewrites."""
    report = extract_sql(source, function, _CATALOG)
    out = {}
    for profile in PROFILES:
        plan = plan_rewrites(report, _CATALOG, profile, database=database)
        rewritten = optimize_program(
            source, function, _CATALOG, options=ExtractOptions(profile=profile)
        ).rewritten_loops
        out[profile] = (
            [(c.chosen.kind, c.as_written_wins) for c in plan.choices],
            rewritten,
        )
    return out


class TestCostModel:
    def setup_method(self):
        self.db = wilos_database(scale=100, catalog=_CATALOG)
        self.model = AlternativeCostModel(LOCAL, self.db)

    def test_table_cardinality_from_database(self):
        estimate = self.model.cardinality(parse_query("select * from project"))
        assert estimate.rows == 100

    def test_selection_reduces_cardinality(self):
        base = self.model.cardinality(parse_query("select * from project")).rows
        filtered = self.model.cardinality(
            parse_query("select * from project where launched = true")
        ).rows
        assert filtered < base

    def test_aggregate_is_one_row(self):
        estimate = self.model.cardinality(
            parse_query("select sum(budget) as s from project")
        )
        assert estimate.rows == 1

    def test_limit_caps_cardinality(self):
        estimate = self.model.cardinality(parse_query("select * from project limit 5"))
        assert estimate.rows == 5

    def test_aggregate_query_cheaper_than_scan(self):
        scan = self.model.query_cost_ms(parse_query("select * from project"))
        agg = self.model.query_cost_ms(parse_query("select sum(budget) as s from project"))
        assert agg < scan

    def test_unknown_table_uses_default(self):
        estimate = self.model.cardinality(parse_query("select * from nonexistent"))
        assert estimate.rows == LOCAL.default_table_rows


class TestCostBasedPlan:
    def test_rewrites_clean_aggregation(self):
        db = wilos_database(scale=100, catalog=_CATALOG)
        s = sample(9)
        for profile, (verdicts, rewritten) in _verdicts(
            s.source, s.function, db
        ).items():
            assert verdicts == [("pushdown", False)], profile
            assert rewritten, profile

    def test_declines_figure7a(self):
        db = wilos_database(scale=100, catalog=_CATALOG)
        for source in FIGURE7A_SHAPES:
            for profile, (verdicts, rewritten) in _verdicts(source, "f", db).items():
                assert verdicts == [("as-written", False)], profile
                assert not rewritten, profile

    def test_n_plus_one_always_rewritten(self):
        """Eliminating a per-row query is worth it at any size."""
        s = sample(10)
        for scale in (10, 100, 200):
            db = wilos_database(scale=scale, catalog=_CATALOG)
            for profile, (verdicts, rewritten) in _verdicts(
                s.source, s.function, db
            ).items():
                assert [wins for _, wins in verdicts] == [False], (scale, profile)
                assert rewritten, (scale, profile)
