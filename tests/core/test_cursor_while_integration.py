"""JDBC-style cursor loops (``while (rs.next())``) through the whole
pipeline: normalisation + extraction + consolidation."""

from repro.core import ExtractOptions, extract_sql, optimize_program
from repro.db import Connection
from repro.interp import Interpreter


class TestCursorWhileExtraction:
    SOURCE = """
    total() {
        rs = executeQuery("select p1 from board where rnd_id = 1");
        total = 0;
        while (rs.next()) {
            total = total + rs.getInt("p1");
        }
        return total;
    }
    """

    def test_extracts_aggregate(self, catalog):
        report = extract_sql(self.SOURCE, "total", catalog)
        assert report.status == "success"
        assert "SUM(p1)" in report.variables["total"].sql

    def test_equivalence(self, catalog, database):
        from tests.conftest import run_both

        report = optimize_program(self.SOURCE, "total", catalog)
        v1, v2, _, _ = run_both(report, database, "total")
        assert v1 == v2 == 11


class TestCursorWhileConsolidation:
    SOURCE = """
    report() {
        rs = executeQuery("from Applicants as a where a.jobId = 7");
        while (rs.next()) {
            id = rs.getInt("applicantId");
            name = executeScalar("select p.name from Personal p where p.applicantId = " + id);
            print(name);
        }
    }
    """

    def test_data_access_merged_into_one_query(self, catalog):
        """The single-print N+1 while-loop fully extracts: the printed
        stream becomes one OUTER APPLY query (rule T7), so not even a
        consolidation is needed."""
        report = optimize_program(self.SOURCE, "report", catalog)
        assert report.rewritten is not None
        extraction = report.variables["__out__"]
        assert extraction.ok
        assert "OUTER APPLY" in extraction.sql

    def test_output_preserved(self, catalog, database):
        report = optimize_program(self.SOURCE, "report", catalog)
        c1, c2 = Connection(database), Connection(database)
        i1 = Interpreter(report.original, c1)
        i1.run("report")
        i2 = Interpreter(report.rewritten, c2)
        i2.run("report")
        assert i1.last_out == i2.last_out == ["ann", "bob"]
        assert c2.stats.queries_executed == 1


class TestDialectReporting:
    def test_postgres_dialect_uses_lateral_for_apply(self, catalog):
        source = """
        report() {
            rs = executeQuery("from Applicants as a");
            for (a : rs) {
                n = executeScalar("select p.name from Personal p where p.applicantId = " + a.getApplicantId());
                print(n);
            }
        }
        """
        report = extract_sql(
            source, "report", catalog, options=ExtractOptions(dialect="postgres")
        )
        assert "LEFT JOIN LATERAL" in report.variables["__out__"].sql

    def test_sqlserver_dialect_uses_outer_apply(self, catalog):
        source = """
        f() {
            q = executeQuery("from Board as b");
            m = 0;
            for (t : q) {
                s = Math.max(t.getP1(), t.getP2());
                if (s > m) { m = s; }
            }
            return m;
        }
        """
        report = extract_sql(
            source, "f", catalog, options=ExtractOptions(dialect="sqlserver")
        )
        sql = report.variables["m"].sql
        assert "CASE WHEN" in sql  # no GREATEST on SQL Server
