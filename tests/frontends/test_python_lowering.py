"""Unit tests for the Python → shared-AST lowering."""

import pytest

from repro.db import Connection, Database
from repro.frontends.python import (
    OPAQUE_CALL,
    PythonParseError,
    parse_python,
    unparse_python_program,
)
from repro.interp import Interpreter, InterpreterError
from repro.lang import (
    Assign,
    Binary,
    Call,
    ExprStmt,
    FieldAccess,
    ForEach,
    MethodCall,
    Name,
    Return,
    StringLit,
    While,
)


def lower_one(source: str):
    """The single function of ``source``, lowered."""
    program = parse_python(source)
    assert len(program.functions) == 1
    return program.functions[0]


def first_stmt(source: str):
    return lower_one(source).body.statements[0]


class TestDbApiIdioms:
    def test_cursor_factory_is_dropped_and_tracked(self):
        fn = lower_one(
            "def f(conn):\n"
            "    cur = conn.cursor()\n"
            "    cur.execute(\"SELECT id FROM t\")\n"
        )
        # Only the execute survives, as an assignment of executeQuery.
        (stmt,) = fn.body.statements
        assert isinstance(stmt, Assign) and stmt.target == "cur"
        assert isinstance(stmt.value, Call) and stmt.value.func == "executeQuery"
        assert isinstance(stmt.value.args[0], StringLit)

    def test_update_statements_lower_to_execute_update(self):
        stmt = first_stmt(
            "def f(cur):\n"
            "    cur.execute(\"DELETE FROM t\")\n"
        )
        assert isinstance(stmt, ExprStmt)
        assert isinstance(stmt.expr, Call) and stmt.expr.func == "executeUpdate"

    def test_unknown_sql_text_is_conservatively_an_update(self):
        stmt = first_stmt(
            "def f(cur, q):\n"
            "    cur.execute(q)\n"
        )
        assert isinstance(stmt, ExprStmt)
        assert stmt.expr.func == "executeUpdate"

    def test_placeholders_splice_to_concatenation(self):
        fn = lower_one(
            "def f(cur, x):\n"
            "    cur.execute(\"SELECT a FROM t WHERE id = ?\", (x,))\n"
        )
        (stmt,) = fn.body.statements
        query = stmt.value.args[0]
        assert isinstance(query, Binary) and query.op == "+"
        assert isinstance(query.left, StringLit)
        assert isinstance(query.right, Name) and query.right.ident == "x"

    def test_percent_s_placeholders_also_splice(self):
        fn = lower_one(
            "def f(cur, x, y):\n"
            "    cur.execute(\"SELECT a FROM t WHERE b = %s AND c = %s\", (x, y))\n"
        )
        (stmt,) = fn.body.statements
        names = [
            n.ident
            for n in _walk_exprs(stmt.value.args[0])
            if isinstance(n, Name)
        ]
        assert names == ["x", "y"]

    def test_fetchall_is_the_cursor_itself(self):
        fn = lower_one(
            "def f(cur):\n"
            "    cur.execute(\"SELECT a FROM t\")\n"
            "    rows = cur.fetchall()\n"
        )
        rows = fn.body.statements[1]
        assert isinstance(rows, Assign) and rows.target == "rows"
        assert isinstance(rows.value, Name) and rows.value.ident == "cur"

    def test_fetchone_zero_becomes_execute_scalar(self):
        fn = lower_one(
            "def f(cur):\n"
            "    cur.execute(\"SELECT SUM(a) FROM t\")\n"
            "    return cur.fetchone()[0]\n"
        )
        ret = fn.body.statements[1]
        assert isinstance(ret, Return)
        assert isinstance(ret.value, Call) and ret.value.func == "executeScalar"
        # The scalar call re-uses (a copy of) the last executed query text.
        assert isinstance(ret.value.args[0], StringLit)

    def test_iterating_a_cursor(self):
        fn = lower_one(
            "def f(cur):\n"
            "    cur.execute(\"SELECT a FROM t\")\n"
            "    for row in cur:\n"
            "        print(row[\"a\"])\n"
        )
        loop = fn.body.statements[1]
        assert isinstance(loop, ForEach) and loop.var == "row"
        assert isinstance(loop.iterable, Name) and loop.iterable.ident == "cur"

    def test_subscript_and_get_lower_to_field_access(self):
        fn = lower_one(
            "def f(row):\n"
            "    a = row[\"name\"]\n"
            "    b = row.get(\"name\")\n"
        )
        for stmt in fn.body.statements:
            assert isinstance(stmt.value, FieldAccess)
            assert stmt.value.field == "name"


class TestControlFlowAndFallbacks:
    def test_augmented_assignment_desugars(self):
        stmt = first_stmt("def f(x):\n    x += 1\n")
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, Binary) and stmt.value.op == "+"

    @pytest.mark.parametrize(
        "source",
        [
            "def f(a, b):\n    return a / b\n",
            "def f(a, b):\n    return a % b\n",
            "def f(a, b):\n    a /= b\n    return a\n",
            "def f(a, b):\n    a %= b\n    return a\n",
        ],
    )
    def test_true_division_and_modulo_are_opaque(self, source):
        # Python's ``/`` and ``%`` are not Java's: 7 / 2 is 3.5, not 3.
        program = parse_python(source)
        value = program.functions[0].body.statements[0].value
        assert isinstance(value, Call) and value.func == OPAQUE_CALL
        with pytest.raises(InterpreterError, match=OPAQUE_CALL):
            Interpreter(program, Connection(Database())).run("f", 7, 2)

    def test_dict_store_becomes_put(self):
        stmt = first_stmt("def f(d, k, v):\n    d[k] = v\n")
        assert isinstance(stmt, ExprStmt)
        assert isinstance(stmt.expr, MethodCall) and stmt.expr.method == "put"

    def test_attribute_store_becomes_bean_setter(self):
        stmt = first_stmt("def f(o, v):\n    o.name = v\n")
        assert isinstance(stmt.expr, MethodCall) and stmt.expr.method == "setName"

    def test_raise_lowers_to_opaque_return(self):
        stmt = first_stmt("def f():\n    raise ValueError(\"no\")\n")
        assert isinstance(stmt, Return)
        assert isinstance(stmt.value, Call) and stmt.value.func == OPAQUE_CALL

    def test_unsupported_loop_forms_poison_their_writes(self):
        stmt = first_stmt(
            "def f(pairs):\n"
            "    for a, b in pairs:\n"
            "        x = a\n"
        )
        assert isinstance(stmt, While)
        assert isinstance(stmt.cond, Call) and stmt.cond.func == OPAQUE_CALL

    def test_unknown_statements_poison_bound_names(self):
        fn = lower_one(
            "def f(xs):\n"
            "    ys = [x for x in xs]\n"
        )
        (stmt,) = fn.body.statements
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.value, Call) and stmt.value.func == OPAQUE_CALL

    def test_lowering_is_total_over_arbitrary_code(self):
        # A grab-bag of out-of-subset constructs: everything must lower.
        program = parse_python(
            "import os\n"
            "class Helper: pass\n"
            "def f(xs, **kw):\n"
            "    with open('x') as fh:\n"
            "        data = fh.read()\n"
            "    try:\n"
            "        y = int(data) // 2\n"
            "    except ValueError as exc:\n"
            "        y = 0\n"
            "    finally:\n"
            "        pass\n"
            "    lam = lambda a: a + 1\n"
            "    del xs\n"
            "    assert y is not None\n"
            "    while y:\n"
            "        y -= 1\n"
            "    return {k: v for k, v in kw.items()}\n"
        )
        assert [fn.name for fn in program.functions] == ["f"]

    def test_statements_are_numbered(self):
        fn = lower_one("def f(x):\n    y = x\n    return y\n")
        sids = [s.sid for s in fn.body.statements]
        assert all(isinstance(s, int) and s >= 0 for s in sids)
        assert len(set(sids)) == len(sids)


class TestSpans:
    def test_nodes_carry_one_based_python_positions(self):
        fn = lower_one(
            "def f(cur):\n"
            "    cur.execute(\"SELECT a FROM t\")\n"
            "    total = 0\n"
        )
        execute, total = fn.body.statements
        assert execute.line == 2 and execute.col == 5
        assert total.line == 3 and total.col == 5

    def test_parse_error_carries_position(self):
        with pytest.raises(PythonParseError) as err:
            parse_python("def f(:\n")
        assert err.value.line == 1
        assert err.value.col >= 1


class TestUnparser:
    def test_renders_python_syntax(self):
        source = (
            "def f(conn):\n"
            "    cur = conn.cursor()\n"
            "    cur.execute(\"SELECT amount FROM orders\")\n"
            "    total = 0\n"
            "    for o in cur:\n"
            "        total = total + o[\"amount\"]\n"
            "    return total\n"
        )
        rendered = unparse_python_program(parse_python(source))
        assert rendered.startswith("def f(conn):")
        assert "for o in cur:" in rendered
        assert "return total" in rendered

    def test_round_trip_is_stable(self):
        source = (
            "def f(cur):\n"
            "    cur.execute(\"SELECT a FROM t\")\n"
            "    xs = []\n"
            "    for row in cur:\n"
            "        if row[\"a\"] > 1:\n"
            "            xs.append(row[\"a\"])\n"
            "    return xs\n"
        )
        once = unparse_python_program(parse_python(source))
        twice = unparse_python_program(parse_python(once))
        assert once == twice


def _walk_exprs(expr):
    yield expr
    for attr in ("left", "right", "operand", "receiver"):
        child = getattr(expr, attr, None)
        if child is not None:
            yield from _walk_exprs(child)
    for child in getattr(expr, "args", []) or []:
        yield from _walk_exprs(child)
