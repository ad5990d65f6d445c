"""Dependent-aggregation (argmax/argmin) tests — Appendix B."""

from repro.ir import ELoop, EOp, build_dir, preprocess_program
from repro.fir import detect_argmax, try_dependent_aggregation
from repro.lang import parse_program

ARGMAX_SOURCE = """
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
    return best;
}
"""

ARGMIN_SOURCE = ARGMAX_SOURCE.replace(">", "<").replace("maxBudget", "minBudget")


def loops_of(source):
    program = preprocess_program(parse_program(source))
    ve, ctx = build_dir(program, "f")
    loops = {k: v for k, v in ve.items() if isinstance(v, ELoop)}
    return loops, ctx


class TestDetection:
    def test_argmax_detected(self):
        loops, _ = loops_of(ARGMAX_SOURCE)
        match = detect_argmax(loops["best"], loops)
        assert match is not None
        assert match.direction == "max"
        assert match.agg_var == "maxBudget"
        assert match.arg_var == "best"

    def test_argmin_detected(self):
        loops, _ = loops_of(ARGMIN_SOURCE)
        match = detect_argmax(loops["best"], loops)
        assert match is not None
        assert match.direction == "min"

    def test_plain_aggregation_not_matched(self):
        loops, _ = loops_of(
            """
            f() {
                q = executeQuery("from T");
                s = 0;
                for (t : q) { s = s + t.getX(); }
            }
            """
        )
        match = detect_argmax(loops["s"], loops)
        assert match is None

    def test_mismatched_measure_not_matched(self):
        loops, _ = loops_of(
            """
            f() {
                q = executeQuery("from Project as p");
                best = null; m = 0;
                for (p : q) {
                    m = Math.max(m, p.getBudget());
                    if (p.getId() > m) { best = p.getName(); }
                }
            }
            """
        )
        match = detect_argmax(loops["best"], loops)
        assert match is None


class TestAlgebraConstruction:
    def test_orderby_limit_form(self):
        loops, ctx = loops_of(ARGMAX_SOURCE)
        node = try_dependent_aggregation(loops["best"], loops, ctx.dag)
        assert node is not None
        assert isinstance(node, EOp) and node.op == "?"
        text = str(node)
        assert "limit[1]" in text
        assert "DESC" in text

    def test_argmin_sorts_ascending(self):
        loops, ctx = loops_of(ARGMIN_SOURCE)
        node = try_dependent_aggregation(loops["best"], loops, ctx.dag)
        assert node is not None
        assert "ASC" in str(node)

    def test_guard_compares_against_initial_value(self):
        """With init 0 and strict >, rows with budget <= 0 never update."""
        loops, ctx = loops_of(ARGMAX_SOURCE)
        node = try_dependent_aggregation(loops["best"], loops, ctx.dag)
        guard = node.operands[0]
        assert guard.op == ">"

    def test_null_init_guards_on_existence(self):
        source = ARGMAX_SOURCE.replace("maxBudget = 0;", "maxBudget = null;")
        loops, ctx = loops_of(source)
        # Comparing against null crashes in Java too, but the canonicalised
        # max-accumulation is still recognised; the guard becomes NOT NULL.
        node = try_dependent_aggregation(loops["best"], loops, ctx.dag)
        if node is not None:
            assert node.operands[0].op in ("not_null", ">")


class TestScalarizeFailures:
    """Only the two declared scalarization failures decline the rewrite; any
    other error is a defect and must surface, not silently skip it."""

    def test_declared_failures_decline(self, monkeypatch):
        import repro.fir.argmax as argmax
        from repro.fir import CapableButUnimplemented, NotScalarizable

        loops, ctx = loops_of(ARGMAX_SOURCE)
        for error in (NotScalarizable("x"), CapableButUnimplemented("x")):
            def fail(*args, error=error):
                raise error

            monkeypatch.setattr(argmax, "scalarize", fail)
            assert try_dependent_aggregation(loops["best"], loops, ctx.dag) is None

    def test_unexpected_error_propagates(self, monkeypatch):
        import pytest

        import repro.fir.argmax as argmax

        def broken(*args):
            raise RuntimeError("scalarize defect")

        loops, ctx = loops_of(ARGMAX_SOURCE)
        monkeypatch.setattr(argmax, "scalarize", broken)
        with pytest.raises(RuntimeError, match="scalarize defect"):
            try_dependent_aggregation(loops["best"], loops, ctx.dag)
