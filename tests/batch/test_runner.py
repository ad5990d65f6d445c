"""The shared directory runner behind ``scan`` and ``lint``.

Pins what both commands must keep agreeing on: cache keys, report shapes,
corrupt-cache recovery, an unusable cache directory, and crashed units.
"""

import json

import pytest

import repro.lint.service as lint_service
from repro import Catalog, ExtractOptions
from repro.__main__ import main
from repro.batch import cache_key, plan_units, run_units, scan_directory
from repro.batch.report import stable_view
from repro.lint.service import lint_cache_key, lint_directory

PIN_SOURCE = "f() { return 1; }"


def _pin_catalog():
    return Catalog.from_dict({"t": {"columns": ["id", "x"], "key": ["id"]}})


def _scan(tree, catalog, **kwargs):
    return scan_directory(tree, catalog, **kwargs)


def _lint(tree, catalog, **kwargs):
    return lint_directory(tree, **kwargs)


RUNS = [pytest.param(_scan, id="scan"), pytest.param(_lint, id="lint")]


class TestPinnedKeys:
    """Existing ``.repro-cache`` entries must keep hitting: keys are frozen."""

    def test_scan_cache_key(self):
        catalog = _pin_catalog()
        assert cache_key(PIN_SOURCE, "f", catalog, ExtractOptions()) == (
            "29713312aafbc0ba37a019199c597b03061d38e7024f54b127c5f9704de9cfa8"
        )
        options = ExtractOptions(dialect="postgres", profile="wan")
        assert cache_key(PIN_SOURCE, "f", catalog, options, frontend="python") == (
            "2c42c40661d112a7421041bd9a80634eea11df61f2edeb8ee92b078f77b9f296"
        )

    def test_lint_cache_key(self):
        assert lint_cache_key(PIN_SOURCE, "f") == (
            "a313fde43f7f6ea996653472e53b139206192e818c97a3a8fefefaf7ae9133bd"
        )
        assert lint_cache_key(PIN_SOURCE, "f", frontend="python") == (
            "891a552de511174fedbff3c000560c34a77d3c9d2eb07e727d24aa782e6f902b"
        )


class TestReportShapes:
    """``--json`` consumers see the same top-level keys, in the same order."""

    def test_scan_report_keys(self, tree, catalog):
        data = scan_directory(tree, catalog, use_cache=False).to_dict()
        assert list(data) == [
            "root", "jobs", "files", "units", "parse_errors", "counts",
            "cache", "timings_ms", "utilisation", "rewrites",
        ]
        assert set(data["cache"]) == {"dir", "hits", "misses", "stores"}
        assert set(data["timings_ms"]) == {"discover", "extract", "total"}

    def test_lint_report_keys(self, tree):
        data = lint_directory(tree, use_cache=False).to_dict()
        assert list(data) == [
            "root", "files", "jobs", "counts", "units", "parse_errors",
            "cache", "timings_ms",
        ]
        assert set(data["cache"]) == {"dir", "hits", "misses", "stores"}
        assert set(data["timings_ms"]) == {"discover", "lint", "total"}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("bad_result", [[1, 2], "abc"], ids=["list", "string"])
def test_corrupt_result_is_a_miss_and_is_overwritten(tree, catalog, run, bad_result):
    cache_dir = tree / ".cache"
    cold = run(tree, catalog, cache_dir=cache_dir)
    entries = sorted(cache_dir.rglob("*.json"))
    assert len(entries) == len(cold.units) > 0
    for entry in entries:
        payload = json.loads(entry.read_text())
        payload["result"] = bad_result
        entry.write_text(json.dumps(payload))

    rerun = run(tree, catalog, cache_dir=cache_dir)
    assert (rerun.cache_hits, rerun.cache_misses) == (0, len(cold.units))
    assert rerun.cache_stores == len(cold.units)
    assert stable_view(rerun) == stable_view(cold)
    # The bad entries were overwritten: the next run is all hits.
    warm = run(tree, catalog, cache_dir=cache_dir)
    assert (warm.cache_hits, warm.cache_misses) == (len(cold.units), 0)


@pytest.mark.parametrize("command", ["scan", "lint"])
def test_unusable_cache_dir_is_a_one_line_error(tree, tmp_path, command):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("a regular file")
    argv = [command, str(tree), "--cache-dir", str(blocker)]
    if command == "scan":
        argv += ["--table", "project:id,name,finished,budget:id"]
    with pytest.raises(SystemExit) as raised:
        main(argv)
    message = raised.value.code
    assert isinstance(message, str)
    assert "\n" not in message
    assert str(blocker) in message


class TestCrashedLintUnit:
    @pytest.fixture
    def exploding(self, tree, monkeypatch):
        """The tree without its parse error, with every lint pass raising."""

        def explode(program, function):
            raise RuntimeError(f"boom in {function}")

        (tree / "broken.mj").unlink()
        monkeypatch.setattr(lint_service, "lint_function", explode)

    @pytest.mark.parametrize("fail_on", ["error", "none"])
    def test_crash_is_printed_and_fails(self, tree, capsys, exploding, fail_on):
        code = main(["lint", str(tree), "--no-cache", "--fail-on", fail_on])
        out = capsys.readouterr().out
        assert code == 1
        expected = [
            "app.mj::unfinished: error: RuntimeError: boom in unfinished",
            "app.mj::totalBudget: error: RuntimeError: boom in totalBudget",
            "sub/more.mj::maxBudget: error: RuntimeError: boom in maxBudget",
        ]
        assert [line for line in out.splitlines() if ": error: " in line] == expected

    def test_report_lists_crashed_units(self, tree, exploding):
        report = lint_directory(tree, use_cache=False)
        assert [unit["function"] for unit in report.crashed] == [
            "unfinished", "totalBudget", "maxBudget",
        ]
        assert report.exit_code(None) == 1


def _scaled(unit, factor):
    return {"function": unit.function, "scaled": len(unit.source) * factor}


def test_run_units_ships_any_unit_function_and_context(tree):
    work = plan_units(tree).units
    assert work
    serial = run_units(work, 3, unit_fn=_scaled)
    parallel = run_units(work, 3, jobs=2, unit_fn=_scaled)
    assert serial == parallel
    assert [r["scaled"] for r in serial] == [len(u.source) * 3 for u in work]
