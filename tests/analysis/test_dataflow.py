"""Dataflow tests: def/use, DDG, lcfd, slicing, liveness (paper Sec 4.2)."""

from repro.analysis import (
    DB_LOCATION,
    OUT_LOCATION,
    all_writes,
    build_loop_ddg,
    expr_reads,
    expr_writes,
    live_after_loops,
    live_before,
    loop_carried_vars,
    slice_statements,
    stmt_def_use,
)
from repro.lang import ForEach, parse_program, parse_statements, walk_statements


def loop_of(source, name="f"):
    func = parse_program(source).function(name)
    return next(
        s for s in walk_statements(func.body) if isinstance(s, ForEach)
    ), func


class TestDefUse:
    def test_assign(self):
        stmt = parse_statements("x = y + z;").statements[0]
        summary = stmt_def_use(stmt)
        assert summary.reads == {"y", "z"}
        assert summary.writes == {"x"}

    def test_static_receiver_not_a_read(self):
        stmt = parse_statements("x = Math.max(a, b);").statements[0]
        assert stmt_def_use(stmt).reads == {"a", "b"}

    def test_collection_add_reads_and_writes_receiver(self):
        stmt = parse_statements("xs.add(v);").statements[0]
        summary = stmt_def_use(stmt)
        assert "xs" in summary.writes
        assert {"xs", "v"} <= summary.reads

    def test_execute_query_reads_db(self):
        stmt = parse_statements('r = executeQuery("from T");').statements[0]
        assert DB_LOCATION in stmt_def_use(stmt).reads

    def test_execute_update_writes_db(self):
        stmt = parse_statements('executeUpdate("delete from T");').statements[0]
        assert DB_LOCATION in stmt_def_use(stmt).writes

    def test_print_writes_output(self):
        stmt = parse_statements("print(x);").statements[0]
        assert OUT_LOCATION in expr_writes(stmt.expr)

    def test_setter_writes_receiver(self):
        stmt = parse_statements("t.setScore(5);").statements[0]
        assert "t" in stmt_def_use(stmt).writes

    def test_all_writes_recursive(self):
        block = parse_statements("if (a) { x = 1; } else { for (t : xs) { y = 2; } }")
        assert {"x", "y", "t"} <= all_writes(block)


class TestLoopCarried:
    def test_accumulator_is_loop_carried(self):
        loop, _ = loop_of("f() { for (t : q) { s = s + t.x; } }")
        assert "s" in loop_carried_vars(loop.body, "t")

    def test_fresh_variable_is_not(self):
        loop, _ = loop_of("f() { for (t : q) { v = t.x; u = v + 1; } }")
        carried = loop_carried_vars(loop.body, "t")
        assert "v" not in carried and "u" not in carried

    def test_conditional_update_is_loop_carried(self):
        loop, _ = loop_of(
            "f() { for (t : q) { if (t.x > m) { m = t.x; } } }"
        )
        assert "m" in loop_carried_vars(loop.body, "t")

    def test_cursor_is_exempt(self):
        loop, _ = loop_of("f() { for (t : q) { s = s + t.x; } }")
        assert "t" not in loop_carried_vars(loop.body, "t")


class TestDdg:
    def test_flow_dependence(self):
        loop, _ = loop_of("f() { for (t : q) { a = t.x; b = a + 1; } }")
        graph = build_loop_ddg(loop.body, "t")
        flows = graph.edges_of_kind("flow")
        assert any(e.location == "a" for e in flows)

    def test_control_dependence(self):
        loop, _ = loop_of("f() { for (t : q) { if (t.x > 0) { s = s + 1; } } }")
        graph = build_loop_ddg(loop.body, "t")
        assert graph.edges_of_kind("control")

    def test_external_dependence_on_db_write(self):
        loop, _ = loop_of(
            'f() { for (t : q) { executeUpdate("..."); r = executeQuery("from T"); } }'
        )
        graph = build_loop_ddg(loop.body, "t")
        assert graph.has_external_dependence()

    def test_no_external_dependence_for_reads_only(self):
        loop, _ = loop_of(
            'f() { for (t : q) { a = executeQuery("from T"); b = executeQuery("from U"); } }'
        )
        graph = build_loop_ddg(loop.body, "t")
        assert not graph.has_external_dependence()


class TestSlicing:
    def test_slice_includes_contributing_statements(self):
        source = """
        f() {
            for (t : q) {
                a = t.x;
                agg = agg + a;
                unrelated = t.y;
            }
        }
        """
        loop, _ = loop_of(source)
        graph = build_loop_ddg(loop.body, "t")
        sids = slice_statements(graph, "agg")
        stmts = {s.sid: s for s in loop.body.statements}
        in_slice = [stmts[s] for s in sids if s in stmts]
        targets = {getattr(s, "target", None) for s in in_slice}
        assert "agg" in targets and "a" in targets
        assert "unrelated" not in targets

    def test_slice_includes_control_predicates(self):
        source = """
        f() {
            for (t : q) {
                if (t.x > 0) {
                    agg = agg + 1;
                }
            }
        }
        """
        loop, _ = loop_of(source)
        graph = build_loop_ddg(loop.body, "t")
        sids = slice_statements(graph, "agg")
        assert len(sids) >= 2  # the assignment and the if


class TestLiveness:
    def test_live_after_loop(self):
        source = """
        f() {
            s = 0;
            for (t : q) { s = s + t.x; d = t.y; }
            return s;
        }
        """
        loop, func = loop_of(source)
        live = live_after_loops(func)[loop.sid]
        assert "s" in live
        assert "d" not in live

    def test_dead_after_reassignment(self):
        block = parse_statements("x = 1; x = 2; y = x;")
        live_in, live_after = live_before(block.statements, {"y"})
        first = block.statements[0]
        assert "x" not in live_after[first.sid]  # x redefined below
        assert "x" not in live_in

    def test_live_through_if(self):
        block = parse_statements("if (c) { y = x; } else { y = 1; }")
        live_in, _ = live_before(block.statements, {"y"})
        assert {"c", "x"} <= live_in

    def test_loop_body_reads_stay_live(self):
        block = parse_statements("for (t : q) { s = s + t.x; }")
        live_in, _ = live_before(block.statements, {"s"})
        assert "s" in live_in and "q" in live_in
