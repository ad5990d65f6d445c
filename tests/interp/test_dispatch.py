"""The interpreter's dispatch: error paths and the step budget.

Every node, operator and method call dispatches on its type; whatever
falls outside a table, a read of a row that is not there, and a Java
run-time error (division by zero, a bad number, a list index out of
bounds) must raise :class:`InterpreterError` with the message below.  The
step budget charges one step per statement, per expression and per
``while`` iteration: a program runs with exactly the steps it takes and
stops one step short of them.
"""

import math

import pytest

from repro.db import Connection
from repro.interp import Interpreter, InterpreterError
from repro.lang import Binary, Expr, ExprStmt, IntLit, Stmt, Unary, parse_program


class _UnknownExpr(Expr):
    pass


class _UnknownStmt(Stmt):
    pass


def _patched(statement):
    """``main() { 0; return 1; }`` with its first statement replaced."""
    program = parse_program("main() { 0; return 1; }")
    program.function("main").body.statements[0] = statement
    return program


_MISSING_OWNER = (
    "row has no column 'owner'; columns: ['budget', 'finished', 'id', 'name',"
    " 'project.budget', 'project.finished', 'project.id', 'project.name']"
)
ERROR_CASES = {
    "unknown expression": (
        _patched(ExprStmt(_UnknownExpr())), (), "cannot evaluate _UnknownExpr"),
    "unknown statement": (
        _patched(_UnknownStmt()), (), "cannot execute _UnknownStmt"),
    "unknown unary operator": (
        _patched(ExprStmt(Unary("~", IntLit(1)))), (), "unknown unary operator '~'"),
    "unknown binary operator": (
        _patched(ExprStmt(Binary("^", IntLit(1), IntLit(2)))), (),
        "unknown binary operator '^'"),
    "unbound name": (
        parse_program("main() { return y; }"), (), "unbound variable 'y'"),
    "method call on null": (
        parse_program("main() { x = null; return x.size(); }"), (),
        "null pointer: cannot call 'size' on null"),
    "unsupported receiver": (
        parse_program("main(x) { return x.size(); }"), (object(),),
        "cannot call 'size' on object"),
    "unknown numeric method": (
        parse_program("main() { x = 5; return x.size(); }"), (),
        "cannot call 'size' on int"),
    "field access on a non-entity": (
        parse_program("main() { x = 5; return x.score; }"), (),
        "cannot access field 'score' on int"),
    "cursor read before next": (
        parse_program(
            'main() { rs = executeQueryCursor("SELECT * FROM project");'
            ' return rs.getInt("id"); }'),
        (), "cursor is not positioned on a row"),
    "bean getter on a missing column": (
        parse_program(
            'main() { for (p : executeQuery("SELECT * FROM project"))'
            " { return p.getOwner(); } return 0; }"),
        (), _MISSING_OWNER),
    "field access on a missing column": (
        parse_program(
            'main() { for (p : executeQuery("SELECT * FROM project"))'
            " { return p.owner; } return 0; }"),
        (), _MISSING_OWNER),
    # Java run-time errors raise inside the program, so its catch can run.
    "integer division by zero": (
        parse_program("main() { return 1 / 0; }"), (),
        "ArithmeticException: / by zero"),
    "integer remainder by zero": (
        parse_program("main() { return 7 % 0; }"), (),
        "ArithmeticException: / by zero"),
    "parseInt on a non-number": (
        parse_program('main() { return Integer.parseInt("z"); }'), (),
        'NumberFormatException: For input string: "z"'),
    "parseDouble on a non-number": (
        parse_program('main() { return Double.parseDouble("z"); }'), (),
        'NumberFormatException: For input string: "z"'),
    "list get past the end": (
        parse_program("main() { l = new ArrayList(); return l.get(3); }"), (),
        "IndexOutOfBoundsException: Index 3 out of bounds for length 0"),
    "list get at a negative index": (
        parse_program("main() { l = new ArrayList(); l.add(1); return l.get(-1); }"),
        (), "IndexOutOfBoundsException: Index -1 out of bounds for length 1"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_paths_raise_interpreter_error(case, database):
    program, args, message = ERROR_CASES[case]
    interp = Interpreter(program, Connection(database))
    with pytest.raises(InterpreterError) as raised:
        interp.run("main", *args)
    assert str(raised.value) == message


def test_catch_runs_on_a_java_runtime_error(database):
    program = parse_program(
        "main() { x = 0; try { x = 1 / 0; } catch (e) { x = 5; } return x; }"
    )
    assert Interpreter(program, Connection(database)).run("main") == 5


# Each program with the steps it takes and the value it returns.
BUDGET_CASES = {
    # i = 0 (2); while (1); 4 conditions (3 each); 3 iterations (1 each)
    # of i = i + 1 (4 each); return i (2).
    "while": ("main() { i = 0; while (i < 3) { i = i + 1; } return i; }", 32, 3),
    # s = 0 (2); for (1); executeQuery("...") (2); 4 rows of
    # s = s + p.getBudget() (5 each); return s (2).
    "for-each": (
        """
        main() {
            s = 0;
            for (p : executeQuery("SELECT * FROM project")) {
                s = s + p.getBudget();
            }
            return s;
        }
        """,
        27,
        65,
    ),
    # x = 0 (2); try (1); x = x + 1 (4); x = x * 10 (4); return x (2).
    "try/finally": (
        """
        main() {
            x = 0;
            try { x = x + 1; } finally { x = x * 10; }
            return x;
        }
        """,
        13,
        10,
    ),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_step_budget_is_exact(case, database):
    source, steps, value = BUDGET_CASES[case]
    program = parse_program(source)
    interp = Interpreter(program, Connection(database))
    assert interp.run("main") == value
    assert interp._steps == steps

    exact = Interpreter(program, Connection(database), max_steps=steps)
    assert exact.run("main") == value
    short = Interpreter(program, Connection(database), max_steps=steps - 1)
    with pytest.raises(InterpreterError, match="step limit exceeded"):
        short.run("main")


@pytest.mark.parametrize(
    "source, value",
    [
        ("main() { x = 7; return x.compareTo(9); }", -1),
        ("main() { x = 2.5; return x.doubleValue(); }", 2.5),
        # bool subclasses int: its receiver kind is the numeric one.
        ("main() { b = true; return b.compareTo(false); }", 1),
        ("main() { b = false; return b.equals(false); }", True),
    ],
)
def test_numeric_receivers(source, value, database):
    interp = Interpreter(parse_program(source), Connection(database))
    assert interp.run("main") == value


# Java arithmetic: integer ``/`` and ``%`` truncate toward zero; with a
# double operand a zero divisor gives Infinity or NaN instead of raising,
# and ``%`` keeps the dividend's sign.
@pytest.mark.parametrize(
    "expr, value",
    [
        ("-7 / 2", -3),
        ("7 / -2", -3),
        ("-7 / -2", 3),
        ("7 / 2", 3),
        ("-7 % 2", -1),
        ("7 % -2", 1),
        ("-7 % -2", -1),
        ("7 % 2", 1),
        ("7 / 2.0", 3.5),
        ("1.0 / 0", math.inf),
        ("-1.0 / 0", -math.inf),
        ("1 / 0.0", math.inf),
        ("-7.5 % 2", -1.5),
        ("7.5 % -2", 1.5),
    ],
)
def test_java_division_and_remainder(expr, value, database):
    program = parse_program(f"main() {{ return {expr}; }}")
    result = Interpreter(program, Connection(database)).run("main")
    assert result == value and type(result) is type(value)


@pytest.mark.parametrize("expr", ["0.0 / 0", "0 / 0.0", "7.5 % 0", "7 % 0.0"])
def test_double_zero_divisor_gives_nan(expr, database):
    program = parse_program(f"main() {{ return {expr}; }}")
    assert math.isnan(Interpreter(program, Connection(database)).run("main"))
