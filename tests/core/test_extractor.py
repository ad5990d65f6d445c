"""End-to-end extraction pipeline tests (paper Figure 1 walk-through)."""

import pytest

from repro.core import (
    STATUS_CAPABLE,
    STATUS_FAILED,
    STATUS_SUCCESS,
    extract_sql,
    optimize_program,
)

FIGURE2 = """
findMaxScore() {
    boards = executeQuery("from Board as b where b.rnd_id = 1");
    scoreMax = 0;
    for (t : boards) {
        p1 = t.getP1();
        p2 = t.getP2();
        p3 = t.getP3();
        p4 = t.getP4();
        score = Math.max(p1, p2);
        score = Math.max(score, p3);
        score = Math.max(score, p4);
        if (score > scoreMax)
            scoreMax = score;
    }
    return scoreMax;
}
"""


class TestFigure2WalkThrough:
    """The paper's running example: Figure 2 → Figure 3(d)."""

    def test_extraction_succeeds(self, catalog):
        report = extract_sql(FIGURE2, "findMaxScore", catalog)
        assert report.status == STATUS_SUCCESS
        extraction = report.variables["scoreMax"]
        assert extraction.ok

    def test_sql_matches_figure3d(self, catalog):
        report = extract_sql(FIGURE2, "findMaxScore", catalog)
        sql = report.variables["scoreMax"].sql
        assert "MAX(GREATEST(GREATEST(GREATEST(p1, p2), p3), p4))" in sql
        assert "rnd_id = 1" in sql

    def test_only_live_variable_targeted(self, catalog):
        report = extract_sql(FIGURE2, "findMaxScore", catalog)
        assert set(report.variables) == {"scoreMax"}

    def test_equivalence(self, catalog, database):
        from tests.conftest import run_both

        report = optimize_program(FIGURE2, "findMaxScore", catalog)
        v1, v2, s1, s2 = run_both(report, database, "findMaxScore")
        assert v1 == v2 == 50
        assert s2.bytes_transferred < s1.bytes_transferred

    def test_empty_table_keeps_initial_value(self, catalog):
        from repro.db import Connection, Database
        from repro.interp import Interpreter

        report = optimize_program(FIGURE2, "findMaxScore", catalog)
        empty = Database(catalog)
        c1, c2 = Connection(empty), Connection(empty)
        r1 = Interpreter(report.original, c1).run("findMaxScore")
        r2 = Interpreter(report.rewritten, c2).run("findMaxScore")
        assert r1 == r2 == 0  # the imperative initial value survives

    def test_extraction_time_recorded(self, catalog):
        report = extract_sql(FIGURE2, "findMaxScore", catalog)
        assert report.extraction_time_ms > 0
        # the paper reports < 1–2 s per sample; we are well under
        assert report.extraction_time_ms < 2000

    def test_optimize_time_includes_rewrite_phase(self, catalog, monkeypatch):
        """``optimize_program`` used to report only ``extract_sql``'s elapsed
        time; the rewrite/DCE/consolidation phase ran after the stamp.  Delay
        consolidation artificially and check the report notices."""
        import time as time_module

        import repro.rewrite as rewrite_module

        real = rewrite_module.consolidate_loops

        def slow_consolidate(*args, **kwargs):
            time_module.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(rewrite_module, "consolidate_loops", slow_consolidate)
        report = optimize_program(FIGURE2, "findMaxScore", catalog)
        assert report.extraction_time_ms >= 50.0


class TestStatusClassification:
    def test_capable_for_unimplemented_string_ops(self, catalog):
        """The Table 1 '✓' path: technique-representable, no SQL emitter."""
        source = """
        f() {
            q = executeQuery("from Project as p");
            xs = new ArrayList();
            for (t : q) {
                if (t.getName().startsWith("a")) { xs.add(t.getName()); }
            }
            return xs;
        }
        """
        report = extract_sql(source, "f", catalog)
        assert report.status == STATUS_CAPABLE

    def test_failed_for_custom_comparator(self, catalog):
        """The paper's explicit limitation (samples 5 and 7)."""
        source = """
        f(pivot) {
            q = executeQuery("from Project as p");
            xs = new ArrayList();
            for (t : q) {
                if (t.getName().compareTo(pivot) > 0) { xs.add(t.getName()); }
            }
            return xs;
        }
        """
        report = extract_sql(source, "f", catalog)
        assert report.status == STATUS_FAILED

    def test_failed_for_db_update_dependency(self, catalog):
        source = """
        f() {
            q = executeQuery("from Project as p");
            n = 0;
            for (t : q) {
                executeUpdate("update project set budget = 0");
                n = n + 1;
            }
            return n;
        }
        """
        report = extract_sql(source, "f", catalog)
        assert report.status == STATUS_FAILED

    def test_failed_for_while_loop(self, catalog):
        source = "f(n) { s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; } return s; }"
        report = extract_sql(source, "f", catalog, targets=["s"])
        assert report.status == STATUS_FAILED


class TestArgmaxIntegration:
    SOURCE = """
    f() {
        q = executeQuery("from Project as p");
        best = null;
        maxBudget = 0;
        for (p : q) {
            if (p.getBudget() > maxBudget) {
                maxBudget = p.getBudget();
                best = p.getName();
            }
        }
        return new Pair(maxBudget, best);
    }
    """

    def test_both_variables_extracted(self, catalog):
        report = extract_sql(self.SOURCE, "f", catalog)
        assert report.variables["maxBudget"].ok
        assert report.variables["best"].ok  # via the Appendix B relaxation

    def test_equivalence(self, catalog, database):
        from tests.conftest import run_both

        report = optimize_program(self.SOURCE, "f", catalog)
        v1, v2, _, _ = run_both(report, database, "f")
        assert v1 == v2 == (30, "gamma")

    def test_ties_pick_first(self, catalog, database):
        database.insert("project", {"id": 9, "name": "omega", "finished": False, "budget": 30})
        from tests.conftest import run_both

        report = optimize_program(self.SOURCE, "f", catalog)
        v1, v2, _, _ = run_both(report, database, "f")
        assert v1 == v2 == (30, "gamma")  # strict > keeps the first maximum


class TestPartialExtraction:
    def test_other_variables_extracted_when_one_fails(self, catalog):
        """Paper: 'techniques are able to extract equivalent SQL partially
        for some variables ... while leaving other parts of code intact'."""
        source = """
        f(pivot) {
            q = executeQuery("from Project as p");
            total = 0;
            weird = null;
            for (t : q) {
                total = total + t.getBudget();
                if (t.getName().compareTo(pivot) > 0) { weird = t.getName(); }
            }
            return total + weird;
        }
        """
        report = extract_sql(source, "f", catalog)
        assert report.variables["total"].ok
        assert not report.variables["weird"].ok


class TestIntegerDivision:
    """Java truncates integer ``/`` and ``%``; SQL's ``/`` divides exactly,
    so pushing either into SQL would not be equivalent (Theorem 1)."""

    SOURCE = """
    f() {
        q = executeQuery("from t");
        total = 0;
        for (r : q) { total = total + r.getA() OP 2; }
        return total;
    }
    """

    @pytest.mark.parametrize("op, expected", [("/", 3), ("%", 2)])
    def test_division_is_not_pushed_into_sql(self, op, expected):
        from repro.algebra import Catalog
        from repro.db import Connection, Database
        from repro.interp import Interpreter

        catalog = Catalog()
        catalog.define("t", ["id", "a"], ("id",))
        database = Database(catalog)
        database.insert_many("t", [{"id": 1, "a": 3}, {"id": 2, "a": 5}])
        source = self.SOURCE.replace("OP", op)
        report = optimize_program(source, "f", catalog)
        total = report.variables["total"]
        assert total.status == STATUS_FAILED and total.sql is None
        assert [d.code for d in total.diagnostics] == ["EQ204"]
        assert report.rewritten_loops == []
        program = report.rewritten or report.original
        assert Interpreter(program, Connection(database)).run("f") == expected
