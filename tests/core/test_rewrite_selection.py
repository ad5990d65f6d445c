"""``optimize_program`` applies the cost-based verdict of a profile.

Without a profile the Section 5.3 heuristic runs alone, and every rewritten
program of the benchmark's extraction corpus is pinned against
``golden/heuristic_rewrites.json``.  With a profile, a heuristic-eligible
loop stays as written exactly when its deciding site costs less as written
than pushed down.  Regenerate the pin after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/core/test_rewrite_selection.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro import Catalog, ExtractOptions, optimize_program
from repro.frontends import get_frontend
from repro.lang import ForEach, walk_statements
from repro.workloads import RUBIS_SERVLETS, rubis_catalog

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden" / "heuristic_rewrites.json"
EXAMPLES = ROOT / "examples" / "minijava"


def _corpus():
    """The benchmark's extraction corpus (``perfbench/suite.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_suite", ROOT / "perfbench" / "suite.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.extraction_corpus()


def _optimize(unit, profile):
    frontend = unit.options.frontend if unit.options is not None else "minijava"
    options = ExtractOptions(frontend=frontend, profile=profile)
    return optimize_program(unit.source, unit.function, unit.catalog, options=options)


def _fingerprint(report) -> dict:
    text = (
        get_frontend(report.frontend).unparse(report.rewritten)
        if report.rewritten is not None
        else ""
    )
    return {
        "rewritten_loops": list(report.rewritten_loops),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def corpus_reports():
    """``(unit, heuristic report, wan report)`` per corpus function."""
    return [(u, _optimize(u, None), _optimize(u, "wan")) for u in _corpus()]


class TestWithoutProfile:
    def test_corpus_rewrites_match_pinned_heuristic(self, corpus_reports):
        actual = {
            unit.label + "::" + unit.function: _fingerprint(heuristic)
            for unit, heuristic, _ in corpus_reports
        }
        assert len(actual) == len(corpus_reports)
        if os.environ.get("REGEN_GOLDEN"):
            GOLDEN.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
            pytest.skip(f"regenerated {GOLDEN.name}")
        assert actual == json.loads(GOLDEN.read_text())

    def test_nothing_is_costed(self, corpus_reports):
        assert all(h.rewrite_plan is None for _, h, _ in corpus_reports)


class TestWithProfile:
    def test_corpus_drops_exactly_the_as_written_sites(self, corpus_reports):
        """Under ``wan`` the profile drops exactly the heuristic loops whose
        own site prefers as-written.  The one exception is a loop over a
        collection that a pushed-down loop builds: it goes with its builder."""
        dropped = {}
        for unit, heuristic, wan in corpus_reports:
            key = unit.label + "::" + unit.function
            verdict = {
                c.site.loop_sid: c.as_written_wins for c in wan.rewrite_plan.choices
            }
            loops = {
                stmt.sid: stmt
                for stmt in walk_statements(wan.original.function(unit.function).body)
                if isinstance(stmt, ForEach)
            }
            for sid in heuristic.rewritten_loops:
                if sid not in wan.rewritten_loops:
                    assert verdict[sid], (key, sid)
                    dropped.setdefault(key, []).append(sid)
                elif verdict.get(sid):
                    builders = [
                        c.site.loop_sid
                        for c in wan.rewrite_plan.choices
                        if getattr(loops[sid].iterable, "ident", None) in c.site.variables
                    ]
                    assert builders and not any(verdict[b] for b in builders), (
                        key, sid,
                    )
                    assert set(builders) <= set(wan.rewritten_loops), (key, sid)
            assert set(wan.rewritten_loops) <= set(heuristic.rewritten_loops), key
        assert dropped == {
            "matoso/findMaxScoreWithPlayer::findMaxScoreWithPlayer": [4],
            "examples/minijava/boards.mj::findMaxScoreWithPlayer": [20],
            "examples/minijava/stats.mj::orderStats": [5],
        }

    def test_order_stats_follows_the_winner(self):
        catalog = Catalog.from_dict(json.loads((EXAMPLES / "schema.json").read_text()))
        source = (EXAMPLES / "stats.mj").read_text()

        def run(profile):
            return optimize_program(
                source, "orderStats", catalog, options=ExtractOptions(profile=profile)
            )

        local, wan = run("local"), run("wan")
        assert [c.chosen.kind for c in local.rewrite_plan.choices] == ["pushdown"]
        assert local.rewritten_loops and local.rewritten is not None
        assert [c.chosen.kind for c in wan.rewrite_plan.choices] == ["as-written"]
        assert wan.rewritten_loops == [] and wan.rewritten is None

    def test_loop_over_pushed_down_collection_follows_its_builder(self):
        """ViewBidHistory's print loop iterates the list the join loop
        builds.  Its own site prefers as-written, but the join loop's site
        pushes down, and the print loop goes with it."""
        [servlet] = [s for s in RUBIS_SERVLETS if s.name == "ViewBidHistory"]
        heuristic = optimize_program(servlet.source, servlet.function, rubis_catalog())
        for profile in ("local", "wan"):
            report = optimize_program(
                servlet.source, servlet.function, rubis_catalog(),
                options=ExtractOptions(profile=profile),
            )
            verdicts = {
                c.site.loop_sid: c.as_written_wins for c in report.rewrite_plan.choices
            }
            assert len(verdicts) == 2 and sorted(verdicts.values()) == [False, True]
            assert report.rewritten_loops == heuristic.rewritten_loops == sorted(verdicts)
