"""Abstract syntax tree for MiniJava.

Nodes are plain dataclasses.  Statements carry a mutable ``sid`` (statement
id) assigned by :func:`number_statements`; the ids are used by the dataflow
analyses (data-dependence graph, slicing) and by the program rewriter, which
must locate and replace statements in the tree.

Every node also carries its source position (``line``, ``col``, both
1-based; 0 means "synthetic" — built by preprocessing or a rewrite rather
than parsed from source).  Diagnostics and parse errors use these to point
at code.

Ownership: expressions are never mutated after construction, so any number
of programs may share them; a pass that changes an expression builds a new
node.  Statements (including :class:`Block`), :class:`FunctionDef` and
:class:`Program` belong to one program and may be edited in place by the
pass that owns it.  :func:`clone_statements` therefore copies a program by
rebuilding only its statement spine.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class Node:
    """Base class for all AST nodes."""

    line: int = 0
    col: int = 0


# ----------------------------------------------------------------------
# Expressions


class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    value: int
    line: int = 0
    col: int = 0


@dataclass
class FloatLit(Expr):
    value: float
    line: int = 0
    col: int = 0


@dataclass
class StringLit(Expr):
    value: str
    line: int = 0
    col: int = 0


@dataclass
class BoolLit(Expr):
    value: bool
    line: int = 0
    col: int = 0


@dataclass
class NullLit(Expr):
    line: int = 0
    col: int = 0


@dataclass
class Name(Expr):
    """A variable reference."""

    ident: str
    line: int = 0
    col: int = 0


@dataclass
class Binary(Expr):
    """A binary operation such as ``a + b`` or ``x > y``."""

    op: str
    left: Expr
    right: Expr
    line: int = 0
    col: int = 0


@dataclass
class Unary(Expr):
    """A unary operation: ``-x`` or ``!cond``."""

    op: str
    operand: Expr
    line: int = 0
    col: int = 0


@dataclass
class Ternary(Expr):
    """The conditional expression ``cond ? if_true : if_false``."""

    cond: Expr
    if_true: Expr
    if_false: Expr
    line: int = 0
    col: int = 0


@dataclass
class Call(Expr):
    """A free function call, e.g. ``executeQuery("...")`` or a user function."""

    func: str
    args: list[Expr]
    line: int = 0
    col: int = 0


@dataclass
class MethodCall(Expr):
    """A method call on a receiver, e.g. ``t.getP1()`` or ``Math.max(a, b)``."""

    receiver: Expr
    method: str
    args: list[Expr]
    line: int = 0
    col: int = 0


@dataclass
class FieldAccess(Expr):
    """A field read, e.g. ``t.score``."""

    receiver: Expr
    field: str
    line: int = 0
    col: int = 0


@dataclass
class New(Expr):
    """Object construction, e.g. ``new ArrayList()`` or ``new HashSet()``."""

    class_name: str
    args: list[Expr]
    line: int = 0
    col: int = 0


# ----------------------------------------------------------------------
# Statements


class Stmt(Node):
    """Base class for statements.  ``sid`` is assigned by numbering."""

    sid: int = -1


@dataclass
class Assign(Stmt):
    """``target = value;`` (or an augmented form ``+=`` etc.).

    ``target`` is a plain variable name; MiniJava does not model field or
    array-element assignment targets (the paper's examples do not need them —
    setter calls are modelled as :class:`ExprStmt` of a :class:`MethodCall`).
    """

    target: str
    value: Expr
    op: str = "="
    declared_type: str | None = None
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects, e.g. ``list.add(x);``."""

    expr: Expr
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Block | None = None
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class ForEach(Stmt):
    """A cursor loop: ``for (var : iterable) body``."""

    var: str
    iterable: Expr
    body: Block = field(default_factory=Block)
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class While(Stmt):
    cond: Expr
    body: Block = field(default_factory=Block)
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class Return(Stmt):
    value: Expr | None = None
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class Break(Stmt):
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class Continue(Stmt):
    sid: int = -1
    line: int = 0
    col: int = 0


@dataclass
class TryCatch(Stmt):
    """A try/catch/finally block.

    The analysis conservatively treats the try body as the unit of
    optimisation (Section 2 of the paper): code inside a single try block may
    be rewritten, but extraction never crosses try-catch boundaries.
    """

    try_body: Block = field(default_factory=Block)
    catch_var: str | None = None
    catch_body: Block | None = None
    finally_body: Block | None = None
    sid: int = -1
    line: int = 0
    col: int = 0


# ----------------------------------------------------------------------
# Top level


@dataclass
class FunctionDef(Node):
    name: str
    params: list[str]
    body: Block
    line: int = 0
    col: int = 0


@dataclass
class Program(Node):
    functions: list[FunctionDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        """Return the function definition with the given name."""
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")


# ----------------------------------------------------------------------
# Utilities


def number_statements(node: Node, start: int = 0) -> int:
    """Assign consecutive ``sid`` values to every statement under ``node``.

    Returns the next unused id.  Numbering is depth-first in source order, so
    ids are consistent with textual statement order inside any one block.
    """
    counter = start

    def visit(n: Node) -> None:
        nonlocal counter
        if isinstance(n, Stmt):
            n.sid = counter
            counter += 1
        for child in child_statements(n):
            visit(child)

    visit(node)
    return counter


def clone_statements(node: Node) -> Node:
    """Copy a program, function or statement, sharing every expression.

    Statements, blocks and functions are rebuilt (each with a copied
    ``__dict__``); every list on them is copied too, so the clone's blocks
    can be edited without touching ``node``.  Expression values are shared
    as they are, which the ownership rule above makes safe.
    """
    clone = object.__new__(type(node))
    state = dict(node.__dict__)
    for key, value in state.items():
        if isinstance(value, (Stmt, FunctionDef)):
            state[key] = clone_statements(value)
        elif isinstance(value, list):
            state[key] = [
                clone_statements(item) if isinstance(item, (Stmt, FunctionDef)) else item
                for item in value
            ]
    clone.__dict__ = state
    return clone


def child_blocks(stmt: Stmt) -> list[Block]:
    """Return the blocks a statement owns: itself for a :class:`Block`, else
    its bodies (``then``/``else``, loop body, ``try``/``catch``/``finally``)."""
    if isinstance(stmt, Block):
        return [stmt]
    if isinstance(stmt, If):
        blocks = [stmt.then_body]
        if stmt.else_body is not None:
            blocks.append(stmt.else_body)
        return blocks
    if isinstance(stmt, (ForEach, While)):
        return [stmt.body]
    if isinstance(stmt, TryCatch):
        blocks = [stmt.try_body]
        if stmt.catch_body is not None:
            blocks.append(stmt.catch_body)
        if stmt.finally_body is not None:
            blocks.append(stmt.finally_body)
        return blocks
    return []


def child_statements(node: Node) -> list[Stmt]:
    """Return the direct child statements of a node (not expressions)."""
    if isinstance(node, Program):
        return [func.body for func in node.functions]
    if isinstance(node, FunctionDef):
        return [node.body]
    if isinstance(node, Block):
        return list(node.statements)
    return child_blocks(node) if isinstance(node, Stmt) else []


def walk_statements(node: Node):
    """Yield every statement under ``node`` in depth-first source order."""
    if isinstance(node, Stmt):
        yield node
    for child in child_statements(node):
        yield from walk_statements(child)


def walk_expressions(expr: Expr):
    """Yield ``expr`` and every sub-expression, pre-order."""
    yield expr
    if isinstance(expr, Binary):
        yield from walk_expressions(expr.left)
        yield from walk_expressions(expr.right)
    elif isinstance(expr, Unary):
        yield from walk_expressions(expr.operand)
    elif isinstance(expr, Ternary):
        yield from walk_expressions(expr.cond)
        yield from walk_expressions(expr.if_true)
        yield from walk_expressions(expr.if_false)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expressions(arg)
    elif isinstance(expr, MethodCall):
        yield from walk_expressions(expr.receiver)
        for arg in expr.args:
            yield from walk_expressions(arg)
    elif isinstance(expr, FieldAccess):
        yield from walk_expressions(expr.receiver)
    elif isinstance(expr, New):
        for arg in expr.args:
            yield from walk_expressions(arg)


def statement_expressions(stmt: Stmt) -> list[Expr]:
    """Return the expressions directly embedded in a statement."""
    if isinstance(stmt, Assign):
        return [stmt.value]
    if isinstance(stmt, ExprStmt):
        return [stmt.expr]
    if isinstance(stmt, If):
        return [stmt.cond]
    if isinstance(stmt, ForEach):
        return [stmt.iterable]
    if isinstance(stmt, While):
        return [stmt.cond]
    if isinstance(stmt, Return) and stmt.value is not None:
        return [stmt.value]
    return []
