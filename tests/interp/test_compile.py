"""The interpreter compiles each function once, on its first run.

The compiled closures are memoised by the function's identity, so every
later :class:`Interpreter` on the same program reuses them; a statement
clone is a new function and compiles afresh.  A method call is specialised
by its name when compiled (a bean getter reads an entity's column), but
still dispatches on the receiver's type when it runs.
"""

import gc

import pytest

from repro.db import Connection
from repro.interp import Interpreter, InterpreterError, interpreter
from repro.lang import (
    Assign,
    Expr,
    ExprStmt,
    IntLit,
    Stmt,
    clone_statements,
    parse_program,
)


class _UnknownExpr(Expr):
    pass


class _UnknownStmt(Stmt):
    pass


@pytest.fixture
def compiles(monkeypatch):
    """The names of the functions compiled while the test runs, in order."""
    names = []
    compile_function = interpreter._compile_function

    def counting(func):
        names.append(func.name)
        return compile_function(func)

    monkeypatch.setattr(interpreter, "_compile_function", counting)
    return names


def _run(program, database, function="main", *args):
    return Interpreter(program, Connection(database)).run(function, *args)


def test_a_second_interpreter_compiles_nothing(compiles, database):
    program = parse_program(
        """
        main() {
            s = 0;
            for (p : executeQuery("SELECT * FROM project")) { s = s + p.getBudget(); }
            return s;
        }
        """
    )
    assert _run(program, database) == 65
    assert compiles == ["main"]
    assert _run(program, database) == 65
    assert compiles == ["main"]


def test_a_recursive_function_compiles_once(compiles, database):
    program = parse_program(
        """
        fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
        main() { return fact(6) + fact(3); }
        """
    )
    assert _run(program, database) == 726
    assert sorted(compiles) == ["fact", "main"]


def test_an_edited_clone_runs_its_edit_and_the_original_is_unchanged(compiles, database):
    program = parse_program("main() { x = 1; return x; }")
    assert _run(program, database) == 1

    clone = clone_statements(program)
    clone.function("main").body.statements[0] = Assign("x", IntLit(2))
    assert _run(clone, database) == 2
    assert _run(program, database) == 1
    assert compiles == ["main", "main"]


def test_a_dead_function_leaves_the_memo(database):
    program = parse_program("main() { return 1; }")
    assert _run(program, database) == 1
    key = id(program.function("main"))
    assert key in interpreter._COMPILED
    del program
    gc.collect()
    assert key not in interpreter._COMPILED


@pytest.mark.parametrize(
    "node", [ExprStmt(_UnknownExpr()), _UnknownStmt()], ids=["expression", "statement"]
)
def test_an_unknown_node_that_never_runs_never_fails(node, database):
    program = parse_program("main(x) { if (x > 0) { 0; } return 7; }")
    program.function("main").body.statements[0].then_body.statements[0] = node
    assert _run(program, database, "main", 0) == 7


@pytest.mark.parametrize(
    "source, value",
    [
        # A bean getter on an entity, then getter-named calls on other
        # receivers: each dispatches on the receiver's type at run time.
        ('main() { for (p : executeQuery("SELECT * FROM project")) { return p.getName(); } }',
         "alpha"),
        ("main() { l = new ArrayList(); return l.isEmpty(); }", True),
        ('main() { p = new Pair(1, "x"); return p.getFirst(); }', 1),
        ('main() { rs = executeQueryCursor("SELECT * FROM project ORDER BY id");'
         " rs.next(); rs.next(); return rs.getBudget(); }", 20),
    ],
)
def test_a_getter_dispatches_on_its_receiver(source, value, database):
    assert _run(parse_program(source), database) == value


def test_a_getter_on_null_raises_the_receiver_error(database):
    program = parse_program("main() { x = null; return x.getName(); }")
    with pytest.raises(InterpreterError, match="null pointer: cannot call 'getName' on null"):
        _run(program, database)
