"""Lowering a Python DB-API subset onto the shared surface AST.

The subset covers the shapes database application code actually takes
(the ``frappe.db.sql`` / DB-API scanning idiom): a function obtains a
cursor, executes a query, then iterates, aggregates or accumulates the
rows.  Recognised idioms and their canonical lowerings:

====================================  =====================================
Python                                shared AST
====================================  =====================================
``cur = conn.cursor()``               (dropped; ``cur`` marked as a cursor)
``cur.execute("SELECT ...")``         ``cur = executeQuery("SELECT ...");``
``cur.execute(sql, (x,))``            placeholders (``?``/``%s``) spliced as
                                      concatenation parameters
``cur.execute("UPDATE ...")``         ``executeUpdate("...")`` (DB poisoned)
``rows = cur.fetchall()``             ``rows = cur;``
``cur.fetchone()[0]``                 ``executeScalar("...")`` (last query)
``for row in cur: ...``               ``for (row : cur) ...``
``row["name"]`` / ``row.name``        ``row.name`` (field access)
``acc.append(x)`` / ``acc.add(x)``    collection append/insert
``d[k] = v``                          ``d.put(k, v)``
``total += x``                        ``total = total + x;``
``print(x)``                          output-stream append (preprocessing)
``f"... {x}"``                        string concatenation (query params)
====================================  =====================================

Lowering is *total*: every function lowers to something.  Constructs
outside the subset become opaque — an unresolvable call
(:data:`OPAQUE_CALL`) in expression position, a non-cursor ``while`` for
unsupported loop forms, a conservative ``executeUpdate`` for statically
unclassifiable SQL — so the downstream pipeline degrades to coded
``failed`` classifications instead of crashing, exactly as it does for
MiniJava programs outside the paper's fragment.  ``raise`` lowers to a
``return`` of an opaque value: inside a loop that is abnormal control
flow (the loop becomes unanalysable, which is sound), after it the
statements are unreachable, matching Python semantics.

Every lowered node carries the original 1-based ``line``/``col``, so lint
diagnostics and extraction bail-outs point into the Python source.
"""

from __future__ import annotations

import ast
import copy

from ...lang import (
    Assign,
    Binary,
    Block,
    BoolLit,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    FieldAccess,
    FloatLit,
    ForEach,
    FunctionDef,
    If,
    IntLit,
    MethodCall,
    Name,
    New,
    NullLit,
    Program,
    Return,
    Stmt,
    StringLit,
    Ternary,
    TryCatch,
    Unary,
    While,
    number_statements,
)
from ..base import FrontendError

#: Call name whose resolution always fails, poisoning the value to OPAQUE
#: in the D-IR builder (an unknown function inlines to nothing).
OPAQUE_CALL = "__py_opaque__"


class PythonParseError(FrontendError):
    """The source is not valid Python."""


#: Python operators that mean what the shared (Java) ones do.  True
#: division ``/`` and floor modulo ``%`` do not (``7 / 2`` is 3.5, ``-7 % 2``
#: is 1), so like ``//`` they lower to the opaque call.
_BINOPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
}

_COMPARES = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.Gt: ">",
    ast.LtE: "<=",
    ast.GtE: ">=",
}

#: Python string-method names → the shared AST method the D-IR builder
#: already maps onto ee-DAG operators (see ir.builder._METHOD_OPS).
_PY_METHODS = {
    "upper": "toUpperCase",
    "lower": "toLowerCase",
    "strip": "trim",
    "startswith": "startsWith",
    "endswith": "endsWith",
    "find": "indexOf",
}

#: Leading SQL keywords that classify an execute() as a read.
_QUERY_KEYWORDS = ("select", "from", "with")

_BUILTIN_COLLECTIONS = {
    "list": "ArrayList",
    "set": "HashSet",
    "dict": "HashMap",
}


def parse_python(source: str) -> Program:
    """Parse Python source and lower every top-level function."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise PythonParseError(
            f"invalid Python: {exc.msg}", exc.lineno or 0, (exc.offset or 1)
        ) from None
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append(_FunctionLowering(node).lower())
    program = Program(functions=functions)
    number_statements(program)
    return program


def _pos(node: ast.AST) -> dict:
    """1-based line/col keywords for a lowered node."""
    return {
        "line": getattr(node, "lineno", 0) or 0,
        "col": (getattr(node, "col_offset", -1) or 0) + 1,
    }


class _FunctionLowering:
    """Lowers one ``def`` to a :class:`FunctionDef`, tracking cursors."""

    def __init__(self, node: ast.FunctionDef):
        self.node = node
        #: Variables known to hold DB-API cursors (``conn.cursor()``).
        self.cursors: set[str] = set()
        #: cursor variable → the lowered query-text expression of its most
        #: recent ``execute`` (for the ``fetchone()[0]`` scalar idiom).
        self.last_query: dict[str, Expr] = {}

    def lower(self) -> FunctionDef:
        params = [arg.arg for arg in self.node.args.args]
        body = Block(statements=self._body(self.node.body), **_pos(self.node))
        return FunctionDef(
            name=self.node.name, params=params, body=body, **_pos(self.node)
        )

    # ------------------------------------------------------------------
    # Statements

    def _body(self, stmts: list[ast.stmt]) -> list[Stmt]:
        lowered: list[Stmt] = []
        for stmt in stmts:
            lowered.extend(self._stmt(stmt))
        return lowered

    def _stmt(self, node: ast.stmt) -> list[Stmt]:
        if isinstance(node, ast.Assign):
            out: list[Stmt] = []
            for target in node.targets:
                out.extend(self._assign(target, node.value, node))
            return out
        if isinstance(node, ast.AnnAssign):
            if node.value is None:
                return []
            return self._assign(node.target, node.value, node)
        if isinstance(node, ast.AugAssign):
            return self._aug_assign(node)
        if isinstance(node, ast.Expr):
            return self._expr_stmt(node)
        if isinstance(node, ast.For):
            return self._for(node)
        if isinstance(node, ast.While):
            if node.orelse:
                return [self._opaque_loop(node, node.body)]
            return [
                While(
                    cond=self._expr(node.test),
                    body=self._block(node.body, node),
                    **_pos(node),
                )
            ]
        if isinstance(node, ast.If):
            return [
                If(
                    cond=self._expr(node.test),
                    then_body=self._block(node.body, node),
                    else_body=self._block(node.orelse, node) if node.orelse else None,
                    **_pos(node),
                )
            ]
        if isinstance(node, ast.Return):
            value = self._expr(node.value) if node.value is not None else None
            return [Return(value=value, **_pos(node))]
        if isinstance(node, ast.Break):
            return [Break(**_pos(node))]
        if isinstance(node, ast.Continue):
            return [Continue(**_pos(node))]
        if isinstance(node, ast.Raise):
            # Abnormal exit: a return of an unanalysable value is the
            # sound lowering (abnormal in loops, unreachable-after at top
            # level -- see the module docstring).
            return [Return(value=self._opaque(node), **_pos(node))]
        if isinstance(node, ast.Try):
            return [self._try(node)]
        if isinstance(node, ast.With):
            return self._with(node)
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Pass, ast.Assert,
                             ast.Global, ast.Nonlocal)):
            return []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested definition binds a name we cannot model.
            return [Assign(target=node.name, value=self._opaque(node), **_pos(node))]
        if isinstance(node, ast.Delete):
            return [
                Assign(target=t.id, value=self._opaque(node), **_pos(node))
                for t in node.targets
                if isinstance(t, ast.Name)
            ]
        # Anything else: poison the names it binds (if recognisable).
        return [
            Assign(target=name, value=self._opaque(node), **_pos(node))
            for name in sorted(_bound_names(node))
        ]

    def _block(self, stmts: list[ast.stmt], owner: ast.stmt) -> Block:
        return Block(statements=self._body(stmts), **_pos(owner))

    # -- assignment ----------------------------------------------------

    def _assign(
        self, target: ast.expr, value: ast.expr, node: ast.stmt
    ) -> list[Stmt]:
        if isinstance(target, ast.Name):
            name = target.id
            if self._is_cursor_factory(value):
                # cur = conn.cursor() -- pure handle creation, no effect.
                self.cursors.add(name)
                return []
            execute = self._match_execute(value)
            if execute is not None:
                kind, query = execute
                self.cursors.add(name)
                if kind == "query":
                    self.last_query[name] = query
                    call = Call(func="executeQuery", args=[query], **_pos(node))
                else:
                    call = Call(func="executeUpdate", args=[query], **_pos(node))
                return [Assign(target=name, value=call, **_pos(node))]
            fetched = self._match_fetchall(value)
            if fetched is not None:
                return [
                    Assign(target=name, value=Name(fetched, **_pos(value)), **_pos(node))
                ]
            return [Assign(target=name, value=self._expr(value), **_pos(node))]
        if isinstance(target, ast.Subscript):
            # d[k] = v  →  d.put(k, v)
            if isinstance(target.value, ast.Name):
                key = self._index_expr(target.slice)
                return [
                    ExprStmt(
                        expr=MethodCall(
                            receiver=Name(target.value.id, **_pos(target)),
                            method="put",
                            args=[key, self._expr(value)],
                            **_pos(node),
                        ),
                        **_pos(node),
                    )
                ]
            return []
        if isinstance(target, ast.Attribute):
            # obj.x = v: entity mutation; the builder poisons the receiver
            # through the bean-setter convention.
            if isinstance(target.value, ast.Name):
                setter = "set" + target.attr[:1].upper() + target.attr[1:]
                return [
                    ExprStmt(
                        expr=MethodCall(
                            receiver=Name(target.value.id, **_pos(target)),
                            method=setter,
                            args=[self._expr(value)],
                            **_pos(node),
                        ),
                        **_pos(node),
                    )
                ]
            return []
        if isinstance(target, (ast.Tuple, ast.List)):
            return [
                Assign(target=e.id, value=self._opaque(node), **_pos(node))
                for e in target.elts
                if isinstance(e, ast.Name)
            ]
        return []

    def _aug_assign(self, node: ast.AugAssign) -> list[Stmt]:
        op = _BINOPS.get(type(node.op))
        if op is None or not isinstance(node.target, ast.Name):
            targets = (
                [node.target.id] if isinstance(node.target, ast.Name) else []
            )
            return [
                Assign(target=t, value=self._opaque(node), **_pos(node))
                for t in targets
            ]
        name = node.target.id
        return [
            Assign(
                target=name,
                value=Binary(
                    op=op,
                    left=Name(name, **_pos(node)),
                    right=self._expr(node.value),
                    **_pos(node),
                ),
                **_pos(node),
            )
        ]

    # -- expression statements -----------------------------------------

    def _expr_stmt(self, node: ast.Expr) -> list[Stmt]:
        value = node.value
        if isinstance(value, ast.Constant):
            return []  # docstring / bare literal
        execute = self._match_execute(value)
        if execute is not None:
            kind, query = execute
            receiver = None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
                if isinstance(value.func.value, ast.Name):
                    receiver = value.func.value.id
            if kind == "query" and receiver is not None:
                # cur.execute(SELECT...)  →  cur = executeQuery("...")
                self.cursors.add(receiver)
                self.last_query[receiver] = query
                return [
                    Assign(
                        target=receiver,
                        value=Call(func="executeQuery", args=[query], **_pos(node)),
                        **_pos(node),
                    )
                ]
            call_name = "executeUpdate" if kind == "update" else "executeQuery"
            return [
                ExprStmt(
                    expr=Call(func=call_name, args=[query], **_pos(node)),
                    **_pos(node),
                )
            ]
        return [ExprStmt(expr=self._expr(value), **_pos(node))]

    # -- loops ----------------------------------------------------------

    def _for(self, node: ast.For) -> list[Stmt]:
        if not isinstance(node.target, ast.Name) or node.orelse:
            return [self._opaque_loop(node, node.body)]
        iterable = self._iterable(node.iter)
        return [
            ForEach(
                var=node.target.id,
                iterable=iterable,
                body=self._block(node.body, node),
                **_pos(node),
            )
        ]

    def _iterable(self, node: ast.expr) -> Expr:
        """The loop source: a cursor, a fetchall, an inline execute, or
        any other expression (which may well be opaque)."""
        fetched = self._match_fetchall(node)
        if fetched is not None:
            return Name(fetched, **_pos(node))
        execute = self._match_execute(node)
        if execute is not None and execute[0] == "query":
            return Call(func="executeQuery", args=[execute[1]], **_pos(node))
        return self._expr(node)

    def _opaque_loop(self, node: ast.stmt, body: list[ast.stmt]) -> Stmt:
        """An unsupported loop form: a ``while`` over an opaque condition,
        so every variable the body writes is conservatively poisoned."""
        return While(
            cond=self._opaque(node), body=self._block(body, node), **_pos(node)
        )

    # -- other compound statements --------------------------------------

    def _try(self, node: ast.Try) -> Stmt:
        catch_var = None
        catch_stmts: list[Stmt] = []
        for handler in node.handlers:
            if catch_var is None and handler.name:
                catch_var = handler.name
            catch_stmts.extend(self._body(handler.body))
        return TryCatch(
            try_body=self._block(node.body, node),
            catch_var=catch_var,
            catch_body=Block(statements=catch_stmts, **_pos(node))
            if node.handlers
            else None,
            finally_body=self._block(node.finalbody, node)
            if node.finalbody
            else None,
            **_pos(node),
        )

    def _with(self, node: ast.With) -> list[Stmt]:
        """``with`` lowers to its bindings plus the flattened body (no
        exception semantics are modelled, matching TryCatch treatment)."""
        out: list[Stmt] = []
        for item in node.items:
            var = item.optional_vars
            if isinstance(var, ast.Name):
                out.extend(self._assign(var, item.context_expr, node))
            elif var is None and isinstance(item.context_expr, ast.Call):
                out.extend(
                    self._expr_stmt(ast.Expr(value=item.context_expr, **_ast_pos(node)))
                )
        out.extend(self._body(node.body))
        return out

    # ------------------------------------------------------------------
    # DB-API idiom recognition

    def _is_cursor_factory(self, node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "cursor"
            and not node.args
            and not node.keywords
        )

    def _match_execute(self, node: ast.expr) -> tuple[str, Expr] | None:
        """``X.execute(sql[, params])`` → ("query"|"update", query expr)."""
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "execute"
            and node.args
            and not node.keywords
        ):
            return None
        sql = node.args[0]
        kind = self._classify_sql(sql)
        if len(node.args) == 1:
            return kind, self._expr(sql)
        if len(node.args) == 2:
            spliced = self._splice_placeholders(sql, node.args[1])
            if spliced is not None:
                return kind, spliced
        return kind, self._opaque(node)

    def _match_fetchall(self, node: ast.expr) -> str | None:
        """``cur.fetchall()`` → the cursor variable name."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fetchall"
            and isinstance(node.func.value, ast.Name)
            and not node.args
            and not node.keywords
        ):
            return node.func.value.id
        return None

    def _classify_sql(self, node: ast.expr) -> str:
        """"query" when the statically-known prefix reads; "update"
        otherwise (conservative: an unknown statement may write)."""
        text = None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        elif isinstance(node, ast.JoinedStr) and node.values:
            first = node.values[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                text = first.value
        if text is None:
            return "update"
        head = text.lstrip().lower()
        return "query" if head.startswith(_QUERY_KEYWORDS) else "update"

    def _splice_placeholders(
        self, sql: ast.expr, params: ast.expr
    ) -> Expr | None:
        """``execute("... id = ?", (x,))`` → ``"... id = " + x`` so the
        D-IR builder resolves the value as a query parameter."""
        if not (isinstance(sql, ast.Constant) and isinstance(sql.value, str)):
            return None
        if not isinstance(params, (ast.Tuple, ast.List)):
            return None
        text = sql.value
        marker = "?" if "?" in text else "%s" if "%s" in text else None
        if marker is None:
            return None
        pieces = text.split(marker)
        if len(pieces) != len(params.elts) + 1:
            return None
        expr: Expr = StringLit(pieces[0], **_pos(sql))
        for piece, param in zip(pieces[1:], params.elts):
            expr = Binary(op="+", left=expr, right=self._expr(param), **_pos(sql))
            if piece:
                expr = Binary(
                    op="+", left=expr, right=StringLit(piece, **_pos(sql)), **_pos(sql)
                )
        return expr

    def _match_scalar_fetch(self, node: ast.expr) -> Expr | None:
        """``cur.fetchone()[0]`` → ``executeScalar(<last query>)``."""
        if not isinstance(node, ast.Subscript):
            return None
        index = node.slice
        if isinstance(index, ast.Index):  # pragma: no cover (py<3.9 shape)
            index = index.value
        if not (isinstance(index, ast.Constant) and index.value == 0):
            return None
        call = node.value
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "fetchone"
            and isinstance(call.func.value, ast.Name)
        ):
            return None
        query = self.last_query.get(call.func.value.id)
        if query is None:
            return None
        # A copy, so that one expression object never appears twice in a
        # program (lint keys loop membership on node identity).
        return Call(func="executeScalar", args=[copy.deepcopy(query)], **_pos(node))

    # ------------------------------------------------------------------
    # Expressions

    def _opaque(self, node: ast.AST) -> Expr:
        return Call(func=OPAQUE_CALL, args=[], **_pos(node))

    def _expr(self, node: ast.expr) -> Expr:
        if isinstance(node, ast.Constant):
            return self._constant(node)
        if isinstance(node, ast.Name):
            return Name(node.id, **_pos(node))
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                return self._opaque(node)
            return Binary(
                op=op,
                left=self._expr(node.left),
                right=self._expr(node.right),
                **_pos(node),
            )
        if isinstance(node, ast.BoolOp):
            op = "&&" if isinstance(node.op, ast.And) else "||"
            expr = self._expr(node.values[0])
            for value in node.values[1:]:
                expr = Binary(op=op, left=expr, right=self._expr(value), **_pos(node))
            return expr
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                return Unary(op="!", operand=self._expr(node.operand), **_pos(node))
            if isinstance(node.op, ast.USub):
                return Unary(op="-", operand=self._expr(node.operand), **_pos(node))
            return self._opaque(node)
        if isinstance(node, ast.IfExp):
            return Ternary(
                cond=self._expr(node.test),
                if_true=self._expr(node.body),
                if_false=self._expr(node.orelse),
                **_pos(node),
            )
        if isinstance(node, ast.Attribute):
            return FieldAccess(
                receiver=self._expr(node.value), field=node.attr, **_pos(node)
            )
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.JoinedStr):
            return self._fstring(node)
        if isinstance(node, ast.List) and not node.elts:
            return New(class_name="ArrayList", args=[], **_pos(node))
        if isinstance(node, ast.Dict) and not node.keys:
            return New(class_name="HashMap", args=[], **_pos(node))
        if isinstance(node, ast.Tuple):
            return New(
                class_name="Tuple",
                args=[self._expr(e) for e in node.elts],
                **_pos(node),
            )
        return self._opaque(node)

    def _constant(self, node: ast.Constant) -> Expr:
        value = node.value
        if value is None:
            return NullLit(**_pos(node))
        if isinstance(value, bool):
            return BoolLit(value, **_pos(node))
        if isinstance(value, int):
            return IntLit(value, **_pos(node))
        if isinstance(value, float):
            return FloatLit(value, **_pos(node))
        if isinstance(value, str):
            return StringLit(value, **_pos(node))
        return self._opaque(node)

    def _compare(self, node: ast.Compare) -> Expr:
        if len(node.ops) != 1:
            return self._opaque(node)  # chained comparisons are out of subset
        op_node, right = node.ops[0], node.comparators[0]
        left = node.left
        if isinstance(op_node, (ast.Is, ast.IsNot)):
            # Only the `is [not] None` identity form maps onto SQL equality.
            if not (isinstance(right, ast.Constant) and right.value is None):
                return self._opaque(node)
            op = "==" if isinstance(op_node, ast.Is) else "!="
            return Binary(
                op=op,
                left=self._expr(left),
                right=NullLit(**_pos(right)),
                **_pos(node),
            )
        if isinstance(op_node, (ast.In, ast.NotIn)):
            # `x in s` → s.contains(x); the builder maps it to the
            # string-containment operator.
            contains = MethodCall(
                receiver=self._expr(right),
                method="contains",
                args=[self._expr(left)],
                **_pos(node),
            )
            if isinstance(op_node, ast.NotIn):
                return Unary(op="!", operand=contains, **_pos(node))
            return contains
        op = _COMPARES.get(type(op_node))
        if op is None:
            return self._opaque(node)
        return Binary(
            op=op, left=self._expr(left), right=self._expr(right), **_pos(node)
        )

    def _subscript(self, node: ast.Subscript) -> Expr:
        scalar = self._match_scalar_fetch(node)
        if scalar is not None:
            return scalar
        index = node.slice
        if isinstance(index, ast.Index):  # pragma: no cover (py<3.9 shape)
            index = index.value
        if isinstance(index, ast.Constant) and isinstance(index.value, str):
            # row["name"] → row.name
            return FieldAccess(
                receiver=self._expr(node.value), field=index.value, **_pos(node)
            )
        return self._opaque(node)

    def _call(self, node: ast.Call) -> Expr:
        if node.keywords:
            return self._opaque(node)
        args = node.args
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in ("max", "min") and len(args) == 2:
                return MethodCall(
                    receiver=Name("Math", **_pos(node)),
                    method=name,
                    args=[self._expr(a) for a in args],
                    **_pos(node),
                )
            if name == "abs" and len(args) == 1:
                return MethodCall(
                    receiver=Name("Math", **_pos(node)),
                    method="abs",
                    args=[self._expr(args[0])],
                    **_pos(node),
                )
            if name == "int" and len(args) == 1:
                return MethodCall(
                    receiver=Name("Integer", **_pos(node)),
                    method="parseInt",
                    args=[self._expr(args[0])],
                    **_pos(node),
                )
            if name == "float" and len(args) == 1:
                return MethodCall(
                    receiver=Name("Double", **_pos(node)),
                    method="parseDouble",
                    args=[self._expr(args[0])],
                    **_pos(node),
                )
            if name == "len" and len(args) == 1:
                return MethodCall(
                    receiver=self._expr(args[0]), method="size", args=[], **_pos(node)
                )
            if name == "str" and len(args) == 1:
                return MethodCall(
                    receiver=self._expr(args[0]),
                    method="toString",
                    args=[],
                    **_pos(node),
                )
            if name in _BUILTIN_COLLECTIONS and not args:
                return New(
                    class_name=_BUILTIN_COLLECTIONS[name], args=[], **_pos(node)
                )
            if name == "print":
                return Call(
                    func="print", args=[self._expr(a) for a in args], **_pos(node)
                )
            if name == OPAQUE_CALL:
                return self._opaque(node)
            # A user-defined function: the D-IR builder inlines it when it
            # exists in the program, and poisons the value otherwise.
            return Call(
                func=name, args=[self._expr(a) for a in args], **_pos(node)
            )
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            fetched = self._match_fetchall(node)
            if fetched is not None:
                return Name(fetched, **_pos(node))
            execute = self._match_execute(node)
            if execute is not None and execute[0] == "query":
                return Call(func="executeQuery", args=[execute[1]], **_pos(node))
            if method == "get" and len(args) == 1:
                key = args[0]
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    # row.get("name") → row.name
                    return FieldAccess(
                        receiver=self._expr(node.func.value),
                        field=key.value,
                        **_pos(node),
                    )
                return self._opaque(node)
            mapped = _PY_METHODS.get(method, method)
            return MethodCall(
                receiver=self._expr(node.func.value),
                method=mapped,
                args=[self._expr(a) for a in args],
                **_pos(node),
            )
        return self._opaque(node)

    def _fstring(self, node: ast.JoinedStr) -> Expr:
        pieces: list[Expr] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                pieces.append(StringLit(value.value, **_pos(node)))
            elif isinstance(value, ast.FormattedValue):
                if value.format_spec is not None or value.conversion not in (-1, 115):
                    pieces.append(self._opaque(value))
                else:
                    pieces.append(self._expr(value.value))
            else:
                pieces.append(self._opaque(value))
        if not pieces:
            return StringLit("", **_pos(node))
        expr = pieces[0]
        for piece in pieces[1:]:
            expr = Binary(op="+", left=expr, right=piece, **_pos(node))
        return expr

    def _index_expr(self, index: ast.expr) -> Expr:
        if isinstance(index, ast.Index):  # pragma: no cover (py<3.9 shape)
            index = index.value
        return self._expr(index)


def _ast_pos(node: ast.AST) -> dict:
    """Source position keywords for synthesising raw ``ast`` nodes."""
    return {
        "lineno": getattr(node, "lineno", 1),
        "col_offset": getattr(node, "col_offset", 0),
    }


def _bound_names(node: ast.stmt) -> set[str]:
    """Names a statement assigns, for conservative poisoning."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
    return names
