"""Extension-feature tests: boolean-return loops, unordered mode,
temporary tables (the paper's Section 2 / Appendix B / future-work items)."""

from repro.algebra import Catalog
from repro.core import ExtractOptions, extract_sql, optimize_program
from repro.db import Connection, Database
from repro.interp import Entity, Interpreter
from repro.lang import unparse_program
from repro.workloads import sample, wilos_catalog, wilos_database


class TestBooleanReturnLoops:
    SOURCE = """
    anyFinished() {
        q = executeQuery("from Project as p");
        for (t : q) {
            if (t.getFinished()) { return true; }
        }
        return false;
    }
    """

    def test_extracts_exists(self, catalog):
        report = extract_sql(self.SOURCE, "anyFinished", catalog)
        assert report.status == "success"

    def test_equivalence_on_both_outcomes(self, catalog):
        report = optimize_program(self.SOURCE, "anyFinished", catalog)
        assert "executeExists" in unparse_program(report.rewritten)

        populated = Database(catalog)
        populated.insert_many(
            "project",
            [
                {"id": 1, "name": "a", "finished": False},
                {"id": 2, "name": "b", "finished": True},
            ],
        )
        empty = Database(catalog)
        for db, expected in ((populated, True), (empty, False)):
            c1, c2 = Connection(db), Connection(db)
            r1 = Interpreter(report.original, c1).run("anyFinished")
            r2 = Interpreter(report.rewritten, c2).run("anyFinished")
            assert r1 == r2 == expected

    def test_negated_form(self, catalog):
        source = """
        noneFinished() {
            q = executeQuery("from Project as p");
            for (t : q) {
                if (t.getFinished()) { return false; }
            }
            return true;
        }
        """
        report = extract_sql(source, "noneFinished", catalog)
        assert report.status == "success"

    def test_loop_with_more_work_not_normalised(self, catalog):
        """A loop doing more than the boolean check keeps its return and
        stays unanalysable (the paper's conservative stance)."""
        source = """
        f() {
            q = executeQuery("from Project as p");
            s = 0;
            for (t : q) {
                s = s + 1;
                if (t.getFinished()) { return s; }
            }
            return s;
        }
        """
        report = extract_sql(source, "f", catalog)
        assert report.status == "failed"


class TestUnorderedMode:
    JOIN_NO_KEY = """
    f() {
        users = executeQuery("from Keyless as u");
        xs = new ArrayList();
        for (u : users) {
            rs = executeQuery("select r.role_name from Role r where r.id = " + u.getRole_id());
            for (r : rs) { xs.add(r.getRole_name()); }
        }
        return xs;
    }
    """

    def _catalog(self):
        catalog = Catalog()
        catalog.define("keyless", ["name", "role_id"])  # deliberately no key
        catalog.define("role", ["id", "role_name"], key=("id",))
        return catalog

    def test_ordered_mode_requires_key(self):
        report = extract_sql(self.JOIN_NO_KEY, "f", self._catalog())
        assert report.status == "failed"

    def test_unordered_mode_waives_key(self):
        report = extract_sql(
            self.JOIN_NO_KEY, "f", self._catalog(),
            options=ExtractOptions(ordering_matters=False),
        )
        assert report.status == "success"
        assert "JOIN" in report.variables["xs"].sql


class TestTempTables:
    def test_sample_29_fails_by_default(self):
        s = sample(29)
        report = extract_sql(s.source, s.function, wilos_catalog())
        assert report.status == "failed"

    def test_sample_29_succeeds_with_temp_tables(self):
        s = sample(29)
        report = optimize_program(
            s.source, s.function, wilos_catalog(),
            options=ExtractOptions(allow_temp_tables=True),
        )
        assert report.status == "success"
        rendered = unparse_program(report.rewritten)
        assert 'registerTempTable("__temp_roles", roles);' in rendered
        assert "__temp_roles" in report.variables["result"].sql

    def test_temp_table_runtime_equivalence(self):
        s = sample(29)
        catalog = wilos_catalog()
        report = optimize_program(
            s.source, s.function, catalog,
            options=ExtractOptions(allow_temp_tables=True),
        )
        db = wilos_database(scale=20, catalog=catalog)
        roles = [Entity(dict(r)) for r in db.rows("role")]
        c1, c2 = Connection(db), Connection(db)
        r1 = Interpreter(report.original, c1).run(s.function, roles)
        r2 = Interpreter(report.rewritten, c2).run(s.function, roles)
        assert r1 == r2
        # Shipping the collection costs a round trip and bytes.
        assert c2.stats.round_trips == 2

    def test_temp_table_transfer_accounted(self):
        catalog = wilos_catalog()
        db = wilos_database(scale=10, catalog=catalog)
        conn = Connection(db)
        conn.ship_temp_table("__tt", [{"x": 1}, {"x": 2}])
        assert conn.stats.bytes_transferred > 0
        assert db.rows("__tt") == [{"x": 1}, {"x": 2}]

    def test_query_derived_loops_not_affected(self, catalog):
        """The temp-table flag must not change query-derived extractions."""
        s = sample(9)
        with_flag = extract_sql(
            s.source, s.function, wilos_catalog(),
            options=ExtractOptions(allow_temp_tables=True),
        )
        without = extract_sql(s.source, s.function, wilos_catalog())
        assert with_flag.variables["total"].sql == without.variables["total"].sql
