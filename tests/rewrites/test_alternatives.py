"""Structural properties of the generated rewrite space over the corpus."""

from __future__ import annotations

import pytest

from repro import ExtractOptions, extract_sql, generate_alternatives, optimize_program
from repro.core import STATUS_SUCCESS
from repro.lang import parse_program, unparse_program


def _sites_by_function(corpus_reports, examples_catalog):
    sites = {}
    for file_name, fn, report in corpus_reports:
        for site in generate_alternatives(report, examples_catalog):
            sites[(file_name, fn.name, site.loop_sid)] = site
    return sites


@pytest.fixture(scope="module")
def corpus_sites(corpus_reports, examples_catalog):
    return _sites_by_function(corpus_reports, examples_catalog)


def _site_for(corpus_sites, function):
    matches = [s for (_, fn, _), s in corpus_sites.items() if fn == function]
    assert len(matches) == 1, f"expected one site for {function}, got {len(matches)}"
    return matches[0]


class TestSpaceShape:
    def test_every_site_has_at_least_two_alternatives(self, corpus_sites):
        """Acceptance: >=2 alternatives per site wherever a site exists at
        all (the as-written baseline plus at least one rewrite)."""
        assert corpus_sites, "corpus produced no extraction sites"
        for key, site in corpus_sites.items():
            assert len(site.alternatives) >= 2, (
                f"site {key} has only {site.kinds}"
            )

    def test_as_written_baseline_everywhere(self, corpus_sites):
        for key, site in corpus_sites.items():
            baseline = site.alternative("as-written")
            assert baseline is not None, f"site {key} lacks the baseline"
            assert baseline.identity
            assert not baseline.extracted_rels

    def test_exactly_one_identity_member(self, corpus_sites):
        for site in corpus_sites.values():
            assert sum(1 for a in site.alternatives if a.identity) == 1

    def test_every_alternative_reparses(self, corpus_sites):
        """Alternatives are complete programs: unparse → parse must close."""
        for site in corpus_sites.values():
            for alternative in site.alternatives:
                reparsed = parse_program(alternative.source())
                assert [f.name for f in reparsed.functions] == [
                    f.name for f in alternative.program.functions
                ]

    def test_successful_extractions_offer_extraction(
        self, corpus_reports, corpus_sites
    ):
        """A site with any successful variable gets an extraction-based
        member: full push-down when everything extracted, hybrid when a
        residual variable keeps part of the loop alive."""
        for file_name, fn, report in corpus_reports:
            loop_vars = {
                v.loop_sid
                for v in report.variables.values()
                if v.status == STATUS_SUCCESS and v.loop_sid >= 0
            }
            for loop_sid in loop_vars:
                site = corpus_sites[(file_name, fn.name, loop_sid)]
                statuses = {
                    report.variables[name].status for name in site.variables
                }
                expected = (
                    "pushdown" if statuses == {STATUS_SUCCESS} else "hybrid"
                )
                assert expected in site.kinds, (
                    f"{fn.name} loop@{loop_sid}: {site.kinds}"
                )


class TestKnownSites:
    def test_order_stats_pushes_three_aggregates(self, corpus_sites):
        site = _site_for(corpus_sites, "orderStats")
        pushdown = site.alternative("pushdown")
        assert pushdown is not None
        assert len(pushdown.extracted_rels) == 3
        assert sorted(site.variables) == ["count", "maxAmount", "total"]

    def test_customer_spend_gets_batched_and_prefetch(self, corpus_sites):
        site = _site_for(corpus_sites, "customerSpend")
        assert {"as-written", "batched", "prefetch"} <= set(site.kinds)
        assert len(site.inner_lookups) == 1
        lookup = site.inner_lookups[0]
        assert lookup.table.lower() == "tiers"
        assert lookup.key_column == "custId"
        assert lookup.value_column == "amount"

        batched = site.alternative("batched").source()
        assert "registerTempTable" in batched
        assert "__batch" in batched
        assert "HashMap" in batched

        prefetch = site.alternative("prefetch").source()
        assert "registerTempTable" not in prefetch
        assert "HashMap" in prefetch

    def test_mixed_reduction_gets_hybrid(self, corpus_sites):
        site = _site_for(corpus_sites, "mixedReduction")
        hybrid = site.alternative("hybrid")
        assert hybrid is not None
        assert len(hybrid.extracted_rels) == 1  # only `total` extracted
        # The residual loop must survive in the hybrid program: the
        # non-associative accumulator still needs its imperative fold.
        assert "acc" in hybrid.source()

    def test_as_written_program_is_the_original(self, corpus_reports,
                                                examples_catalog):
        for _, fn, report in corpus_reports:
            for site in generate_alternatives(report, examples_catalog):
                baseline = site.alternative("as-written")
                assert unparse_program(baseline.program) == unparse_program(
                    report.original
                )


class TestMalformedQueries:
    SOURCE = """
    f() {
        orders = executeQuery("from Orders as o limit x");
        total = 0;
        for (o : orders) {
            cid = o.getId();
            t = executeScalar("select t.amount from Tiers t where t.custId = :cid limit x");
            total = total + o.getAmount() + t;
        }
        return total;
    }
    """

    def test_malformed_literal_query_leaves_an_as_written_site(self, examples_catalog):
        report = extract_sql(self.SOURCE, "f", examples_catalog)
        assert report.variables["total"].status == "failed"
        [site] = generate_alternatives(report, examples_catalog)
        assert site.kinds == ["as-written"]
        assert site.outer_rel is None
        assert site.inner_lookups == [] and site.residual_inner_queries == 1

        optimized = optimize_program(
            self.SOURCE, "f", examples_catalog, options=ExtractOptions(profile="wan")
        )
        assert optimized.rewritten_loops == []
        assert optimized.rewrite_plan.choices[0].chosen.kind == "as-written"
