"""Per-site winner selection: profile sensitivity, explain text, wiring."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import CostParameters, ExtractOptions, extract_sql, plan_rewrites
from repro.rewrites import AlternativeCostModel, select_alternative
from repro.rewrites.alternatives import Alternative, Site
from repro.rewrites.profile import LOCAL

from .conftest import EXAMPLES


@pytest.fixture(scope="module")
def order_stats_report(examples_catalog):
    source = (EXAMPLES / "stats.mj").read_text()
    return extract_sql(source, "orderStats", examples_catalog)


class TestProfileFlip:
    def test_local_picks_pushdown(self, order_stats_report, examples_catalog):
        plan = plan_rewrites(order_stats_report, examples_catalog, "local")
        assert [c.chosen.kind for c in plan.choices] == ["pushdown"]

    def test_wan_picks_as_written(self, order_stats_report, examples_catalog):
        """The acceptance flip: three aggregate round trips at 40 ms each
        cost more than one full-table fetch, so WAN keeps the loop."""
        plan = plan_rewrites(order_stats_report, examples_catalog, "wan")
        assert [c.chosen.kind for c in plan.choices] == ["as-written"]

    def test_why_reflects_the_cost_delta(self, order_stats_report,
                                         examples_catalog):
        for profile in ("local", "wan"):
            plan = plan_rewrites(order_stats_report, examples_catalog, profile)
            choice = plan.choices[0]
            chosen_ms = choice.chosen.cost.total_ms
            runner_up = choice.costed[1]
            delta = runner_up.cost.total_ms - chosen_ms
            assert f"{chosen_ms:.3f} ms" in choice.why
            assert f"+{delta:.3f} ms" in choice.why
            assert runner_up.kind in choice.why

    def test_costed_space_is_sorted(self, order_stats_report, examples_catalog):
        plan = plan_rewrites(order_stats_report, examples_catalog, "local")
        totals = [c.cost.total_ms for c in plan.choices[0].costed]
        assert totals == sorted(totals)


class TestTieBreak:
    def test_degenerate_costs_prefer_declarative_kinds(self):
        """With every cost zeroed out, the alternatives tie at 0 ms and the
        deterministic preference (push work to the database) must decide."""
        free = replace(
            LOCAL,
            name="free",
            cost=CostParameters(
                round_trip_ms=0.0,
                per_result_row_ms=0.0,
                per_scanned_row_ms=0.0,
                per_query_overhead_ms=0.0,
            ),
            client_row_ms=0.0,
            row_bytes=0.0,
        )
        site = Site(
            function="f",
            loop_sid=1,
            variables=["total"],
            outer_rel=None,
            inner_lookups=[],
            residual_inner_queries=0,
            alternatives=[
                Alternative(kind="as-written", program=None, description="",
                            identity=True),
                Alternative(kind="pushdown", program=None, description=""),
            ],
        )
        choice = select_alternative(site, AlternativeCostModel(free))
        assert {c.cost.total_ms for c in choice.costed} == {0.0}
        assert choice.chosen.kind == "pushdown"
        assert "only alternative" not in choice.why


class TestReportWiring:
    def test_profile_option_attaches_plan(self, examples_catalog):
        source = (EXAMPLES / "stats.mj").read_text()
        report = extract_sql(
            source,
            "orderStats",
            examples_catalog,
            options=ExtractOptions(profile="wan"),
        )
        assert report.rewrite_plan is not None
        assert report.rewrite_plan.profile.name == "wan"

        data = report.to_dict()
        assert data["profile"] == "wan"
        sites = data["rewrites"]["sites"]
        assert len(sites) == 1
        assert sites[0]["chosen"] == "as-written"
        kinds = [alt["kind"] for alt in sites[0]["alternatives"]]
        assert set(kinds) == {"as-written", "pushdown"}
        for alt in sites[0]["alternatives"]:
            cost = alt["cost_ms"]
            assert cost["total_ms"] == pytest.approx(
                cost["round_trip_ms"] + cost["transfer_ms"]
                + cost["server_ms"] + cost["client_ms"],
                abs=1e-3,
            )

        # Every variable at the site carries the same choice summary.
        for extraction in report.variables.values():
            assert extraction.rewrite is not None
            assert extraction.rewrite["chosen"] == "as-written"
            assert extraction.to_dict()["rewrite"]["chosen"] == "as-written"

    def test_no_profile_means_no_plan(self, order_stats_report):
        assert order_stats_report.rewrite_plan is None
        data = order_stats_report.to_dict()
        assert data["profile"] is None
        assert data["rewrites"] is None

    def test_choice_for(self, order_stats_report, examples_catalog):
        plan = plan_rewrites(order_stats_report, examples_catalog, "local")
        loop_sid = plan.choices[0].site.loop_sid
        assert plan.choice_for(loop_sid) is plan.choices[0]
        assert plan.choice_for(-123) is None
