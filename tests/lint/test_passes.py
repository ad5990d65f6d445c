"""Every registered pass, exercised on small programs with span assertions.

Each positive case pins the exact (line, col) the finding anchors to, so a
regression in span threading (lexer → parser → AST) or in a pass's anchor
choice fails loudly.  Negative cases pin the deliberate non-findings: the
idioms that look like violations but are sound.
"""

from repro.lint import lint_program


def findings(source: str):
    """(code, "line:col", variable, loop_sid) per diagnostic, report order."""
    return [
        (d.code, str(d.span), d.variable, d.loop_sid)
        for d in lint_program(source).diagnostics
    ]


def codes(source: str):
    return [d.code for d in lint_program(source).diagnostics]


class TestLoopSideEffects:
    def test_eq101_direct_write(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { executeUpdate("update project set done = 1"); }
    return 0;
}
"""
        assert findings(source) == [("EQ101", "4:20", "", 2)]

    def test_eq101_transitive_write_via_callee(self):
        source = """
mark() { executeUpdate("update project set done = 1"); return 0; }
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { mark(); }
    return 0;
}
"""
        [diag] = lint_program(source).diagnostics
        assert diag.code == "EQ101"
        assert str(diag.span) == "5:20"
        assert "transitively writes" in diag.message

    def test_eq102_undefined_callee(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { audit(r); }
    return 0;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ102", "4:20")
        assert "not defined" in diag.message

    def test_eq102_recursive_callee(self):
        source = """
spin(n) { return spin(n); }
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { spin(1); }
    return 0;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ102", "5:20")
        assert "recursive" in diag.message

    def test_println_in_loop_is_not_a_blocker(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { System.out.println(r.getName()); }
    return 0;
}
"""
        assert findings(source) == []


class TestAliasEscape:
    def test_eq103_setter_is_variable_scoped_on_the_receiver(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { r.setName("x"); }
    return 0;
}
"""
        assert findings(source) == [("EQ103", "4:20", "r", 2)]

    def test_eq103_result_set_escapes_to_unknown_callee(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    stash(rs);
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span), diag.loop_sid) == ("EQ103", "6:5", 3)
        assert diag.variable == ""  # loop-wide: poisons the whole fold

    def test_eq103_known_callee_that_mutates_the_parameter(self):
        source = """
drain(xs) { xs.clear(); return 0; }
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    drain(rs);
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ103", "7:5")
        assert "may be mutated" in diag.message

    def test_known_pure_callee_taking_the_result_set_is_fine(self):
        source = """
count(xs) { return 1; }
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    m = count(rs);
    return n + m;
}
"""
        assert findings(source) == []


class TestCursorConsumption:
    def test_eq104_while_loops_reconsume_a_cursor(self):
        source = """
f() {
    rs = executeQueryCursor("from Project as p");
    n = 0;
    while (rs.next()) { n = n + 1; }
    while (rs.next()) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == [
            ("EQ304", "3:5", "rs", -1),  # companion: the cursor is never closed
            ("EQ104", "6:5", "", 6),
        ]

    def test_eq104_second_for_over_a_cursor(self):
        source = """
f() {
    rs = executeQueryCursor("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        diags = lint_program(source).diagnostics
        eq104 = [d for d in diags if d.code == "EQ104"]
        assert [str(d.span) for d in eq104] == ["6:5"]
        assert "already exhausted" in eq104[0].message

    def test_materialised_result_iterated_twice_is_sound(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == []


class TestLoopExitSafety:
    def test_eq105_return_mid_loop(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    for (r : rs) { if (r.getBudget() > 10) { return 1; } }
    return 0;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ105", "4:46")
        assert "'return'" in diag.message

    def test_eq105_bare_break(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { if (r.getBudget() > 10) { break; } n = n + 1; }
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ105", "5:46")
        assert "'break'" in diag.message

    def test_boolean_early_exit_idiom_is_normalised_away(self):
        """``found = true; break;`` becomes a conditional fold during
        preprocessing — extractable, so no EQ105."""
        source = """
f() {
    rs = executeQuery("from Project as p");
    found = false;
    for (r : rs) { if (r.getBudget() > 10) { found = true; break; } }
    return found;
}
"""
        assert findings(source) == []

    def test_eq106_try_catch_in_loop(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { try { n = n + 1; } catch (e) { n = 0; } }
    return n;
}
"""
        assert findings(source) == [("EQ106", "5:20", "", 3)]

    def test_try_catch_outside_loops_is_fine(self):
        source = """
f() {
    n = 0;
    try { n = 1; } catch (e) { n = 2; }
    return n;
}
"""
        assert findings(source) == []


class TestNPlusOne:
    def test_eq301_query_per_iteration(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) {
        o = executeQuery("from Orders as x");
        for (y : o) { n = n + 1; }
    }
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ301", "6:13")
        assert "once per" in diag.message

    def test_eq301_query_in_a_nested_block(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) {
        { o = executeQuery("from Orders as x"); n = n + o.size(); }
    }
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ301", "6:15")

    def test_loop_header_query_is_exempt(self):
        source = """
f() {
    n = 0;
    for (r : executeQuery("from Project as p")) { n = n + 1; }
    return n;
}
"""
        assert "EQ301" not in codes(source)


class TestSqlConcatenation:
    def test_eq302_inline_concatenation(self):
        source = """
f(name) {
    rs = executeQuery("from Project as p where p.name = '" + name + "'");
    n = 0;
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ302", "3:23")

    def test_eq302_taint_through_a_variable(self):
        source = """
f(name) {
    q = "from Project as p where p.name = '" + name + "'";
    rs = executeQuery(q);
    n = 0;
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        [diag] = lint_program(source).diagnostics
        assert (diag.code, str(diag.span)) == ("EQ302", "4:10")
        assert "'q'" in diag.message

    def test_parameter_placeholders_are_the_endorsed_form(self):
        source = """
f() {
    rs = executeQuery("from Project as p where p.name = :name");
    n = 0;
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == []

    def test_pure_literal_concatenation_is_fine(self):
        source = """
f() {
    q = "from Project " + "as p";
    rs = executeQuery(q);
    n = 0;
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == []


class TestDeadResults:
    def test_eq303_discarded_and_never_read_results(self):
        source = """
f() {
    executeQuery("from Project as p");
    dead = executeQuery("from Orders as o");
    return 0;
}
"""
        assert findings(source) == [
            ("EQ303", "3:5", "", -1),
            ("EQ303", "4:5", "dead", -1),
        ]

    def test_used_result_is_not_dead(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == []


class TestUnclosedCursors:
    def test_eq304_cursor_without_close(self):
        source = """
f() {
    rs = executeQueryCursor("from Project as p");
    n = 0;
    while (rs.next()) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == [("EQ304", "3:5", "rs", -1)]

    def test_closed_cursor_is_fine(self):
        source = """
f() {
    rs = executeQueryCursor("from Project as p");
    n = 0;
    while (rs.next()) { n = n + 1; }
    rs.close();
    return n;
}
"""
        assert findings(source) == []

    def test_materialised_executequery_needs_no_close(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    n = 0;
    for (r : rs) { n = n + 1; }
    return n;
}
"""
        assert findings(source) == []


class TestCleanPrograms:
    def test_plain_aggregation_is_clean(self):
        source = """
f() {
    rs = executeQuery("from Project as p");
    total = 0;
    for (r : rs) { total = total + r.getBudget(); }
    return total;
}
"""
        assert findings(source) == []
