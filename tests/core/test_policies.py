"""Rewrite selection: the Section 5.3 heuristic alone, and with the
cost-based verdict of a deployment profile (Appendix C, Cobra)."""

from repro.core import ExtractOptions, optimize_program
from repro.db import Connection
from repro.interp import Interpreter
from repro.workloads import sample, wilos_catalog, wilos_database

_CATALOG = wilos_catalog()
PROFILES = ("local", "wan")

# Figure 7(a): the aggregate extracts, but `weird` keeps the rows flowing
# to the client, so the extra aggregate query is pure overhead.
FIGURE7A = """
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
"""


def _optimize(source, function, profile=None):
    return optimize_program(
        source, function, _CATALOG, options=ExtractOptions(profile=profile)
    )


class TestPolicies:
    def test_heuristic_rewrites_clean_aggregation(self):
        s = sample(9)
        report = _optimize(s.source, s.function)
        assert report.rewritten_loops
        assert report.rewrite_plan is None  # nothing costed without a profile

    def test_cost_policy_rewrites_clean_aggregation(self):
        s = sample(9)
        for profile in PROFILES:
            report = _optimize(s.source, s.function, profile)
            assert report.rewritten_loops, profile
            [choice] = report.rewrite_plan.choices
            assert choice.chosen.kind == "pushdown", profile

    def test_cost_policy_can_decline_small_win(self):
        """A whole-tuple collect over a tiny table: the rewrite saves almost
        nothing and the cost model may keep the original; either decision
        must still yield an equivalent program."""
        s = sample(6)
        db = wilos_database(scale=10, catalog=_CATALOG)
        for profile in PROFILES:
            report = _optimize(s.source, s.function, profile)
            target = report.rewritten if report.rewritten is not None else report.original
            c1, c2 = Connection(db), Connection(db)
            r1 = Interpreter(report.original, c1).run(s.function)
            r2 = Interpreter(target, c2).run(s.function)
            assert list(map(str, r1)) == list(map(str, r2)), profile

    def test_policies_agree_on_figure7a_shape(self):
        heuristic = _optimize(FIGURE7A, "f")
        assert not heuristic.rewritten_loops
        for profile in PROFILES:
            cost = _optimize(FIGURE7A, "f", profile)
            assert not cost.rewritten_loops, profile
            [choice] = cost.rewrite_plan.choices
            assert choice.chosen.kind == "as-written", profile
