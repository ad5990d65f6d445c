"""ExtractOptions: the one options object of the extraction entry points."""

import json

import pytest

from repro import Catalog, ExtractOptions, extract_sql, optimize_program
from repro.workloads import FIND_MAX_SCORE, matoso_catalog

SOURCE = """
unfinished() {
    projects = executeQuery("from Project as p");
    names = new ArrayList();
    for (p : projects) {
        if (p.getFinished() == false) { names.add(p.getName()); }
    }
    return names;
}
"""


def _catalog():
    return Catalog.from_dict(
        {"project": {"columns": ["id", "name", "finished"], "key": ["id"]}}
    )


class TestDataclass:
    def test_defaults(self):
        options = ExtractOptions()
        assert options.dialect == "repro"
        assert options.profile is None
        assert options.ordering_matters is True
        assert options.allow_temp_tables is False

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExtractOptions().dialect = "mysql"

    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractOptions(dialect="oracle")
        with pytest.raises(ValueError):
            ExtractOptions(profile="moon")

    def test_dict_round_trip(self):
        options = ExtractOptions(dialect="postgres", ordering_matters=False)
        assert ExtractOptions.from_dict(options.to_dict()) == options

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            ExtractOptions.from_dict({"dialect": "repro", "turbo": True})

    def test_replace(self):
        options = ExtractOptions().replace(dialect="mysql")
        assert options.dialect == "mysql"
        with pytest.raises(ValueError):
            ExtractOptions().replace(dialect="nope")


class TestEquivalenceWithLegacyKwargs:
    """The loose keywords are gone: every knob travels in ``options=``."""

    def test_mixing_styles_is_an_error(self):
        catalog = _catalog()
        with pytest.raises(TypeError):
            extract_sql(SOURCE, "unfinished", catalog, dialect="mysql")
        with pytest.raises(TypeError):
            extract_sql(
                SOURCE,
                "unfinished",
                catalog,
                dialect="mysql",
                options=ExtractOptions(),
            )
        with pytest.raises(TypeError):
            optimize_program(
                SOURCE,
                "unfinished",
                catalog,
                policy="cost",
                options=ExtractOptions(),
            )

    def test_options_must_be_extract_options(self):
        with pytest.raises(TypeError):
            extract_sql(SOURCE, "unfinished", _catalog(), options={"dialect": "repro"})
        with pytest.raises(TypeError):
            optimize_program(
                SOURCE, "unfinished", _catalog(), options={"dialect": "repro"}
            )


class TestReportToDict:
    def test_round_trips_through_json(self):
        report = optimize_program(FIND_MAX_SCORE, "findMaxScore", matoso_catalog())
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["status"] == "success"
        assert data["function"] == "findMaxScore"
        assert data["variables"]["scoreMax"]["sql"].startswith("SELECT")
        assert isinstance(data["rewritten"], str)  # unparsed program text

    def test_variable_extraction_to_dict(self):
        report = extract_sql(SOURCE, "unfinished", _catalog())
        entry = report.variables["names"].to_dict()
        assert entry["variable"] == "names"
        assert entry["status"] == "success"
        assert "node" not in entry  # internal IR never serializes

    def test_unrewritten_report_has_null_rewritten(self):
        report = extract_sql(SOURCE, "unfinished", _catalog())
        assert report.to_dict()["rewritten"] is None
