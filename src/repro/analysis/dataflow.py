"""Dataflow analyses: def/use sets, dependence graph, slicing, liveness.

These implement the program-analysis vocabulary of Section 4.2 of the
paper: flow dependences, *loop-carried* flow dependences (lcfd), *external*
dependences (database/file/console — the paper conservatively treats the
whole database as one location), program slices, and live variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import (
    Assign,
    Block,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    ForEach,
    FunctionDef,
    If,
    MethodCall,
    Name,
    New,
    Return,
    Stmt,
    TryCatch,
    While,
    walk_expressions,
    walk_statements,
)
from ..interp.values import setter_to_column

#: Pseudo-locations for external effects (paper Section 4.2: the entire
#: database is treated as a single location for dependence analysis).
DB_LOCATION = "@db"
OUT_LOCATION = "@out"
RET_LOCATION = "@ret"

#: Static receivers that are classes, not variables.
STATIC_RECEIVERS = {
    "Math",
    "Integer",
    "Double",
    "String",
    "System",
    "Collections",
    "Objects",
}

#: Methods that mutate their receiver collection/builder.
_MUTATING_METHODS = {
    "add",
    "append",
    "insert",
    "addAll",
    "put",
    "remove",
    "clear",
    "sort",
}

#: Calls that read the database.
DB_READ_CALLS = {"executeQuery", "executeQueryCursor", "executeScalar", "executeExists"}
#: Calls that write the database.
DB_WRITE_CALLS = {"executeUpdate", "executeInsert", "executeDelete", "save", "persist"}
#: Calls that write program output.
OUTPUT_CALLS = {"print", "println"}


# ----------------------------------------------------------------------
# Def/use extraction


def expr_reads(expr: Expr) -> set[str]:
    """Variables and external locations read by an expression."""
    reads: set[str] = set()
    for node in walk_expressions(expr):
        if isinstance(node, Name):
            reads.add(node.ident)
        elif isinstance(node, Call):
            if node.func in DB_READ_CALLS:
                reads.add(DB_LOCATION)
            elif node.func in DB_WRITE_CALLS:
                reads.add(DB_LOCATION)
        elif isinstance(node, MethodCall):
            if isinstance(node.receiver, Name) and node.receiver.ident in STATIC_RECEIVERS:
                reads.discard(node.receiver.ident)
    # Remove static receivers that slipped in as Names.
    return reads - STATIC_RECEIVERS


def expr_writes(expr: Expr) -> set[str]:
    """Locations written by evaluating an expression (side effects)."""
    writes: set[str] = set()
    for node in walk_expressions(expr):
        if isinstance(node, Call):
            if node.func in DB_WRITE_CALLS:
                writes.add(DB_LOCATION)
            elif node.func in OUTPUT_CALLS:
                writes.add(OUT_LOCATION)
        elif isinstance(node, MethodCall):
            mutating = node.method in _MUTATING_METHODS or setter_to_column(node.method)
            if mutating and isinstance(node.receiver, Name):
                if node.receiver.ident not in STATIC_RECEIVERS:
                    writes.add(node.receiver.ident)
            if (
                node.method == "println"
                and isinstance(node.receiver, FieldAccess)
            ):
                writes.add(OUT_LOCATION)
    return writes


@dataclass(frozen=True)
class DefUse:
    """Def/use summary of one statement."""

    reads: frozenset[str]
    writes: frozenset[str]


def stmt_def_use(stmt: Stmt) -> DefUse:
    """Compute the direct def/use sets of a statement (non-recursive for
    compound statements: only their condition / header counts)."""
    if isinstance(stmt, Assign):
        reads = expr_reads(stmt.value)
        writes = {stmt.target} | expr_writes(stmt.value)
        return DefUse(frozenset(reads), frozenset(writes))
    if isinstance(stmt, ExprStmt):
        reads = expr_reads(stmt.expr)
        writes = expr_writes(stmt.expr)
        # A mutating method both reads and writes the receiver.
        reads |= {w for w in writes if not w.startswith("@")}
        return DefUse(frozenset(reads), frozenset(writes))
    if isinstance(stmt, If):
        return DefUse(frozenset(expr_reads(stmt.cond)), frozenset())
    if isinstance(stmt, ForEach):
        return DefUse(frozenset(expr_reads(stmt.iterable)), frozenset({stmt.var}))
    if isinstance(stmt, While):
        return DefUse(frozenset(expr_reads(stmt.cond)), frozenset())
    if isinstance(stmt, Return):
        reads = expr_reads(stmt.value) if stmt.value is not None else set()
        return DefUse(frozenset(reads), frozenset({RET_LOCATION}))
    return DefUse(frozenset(), frozenset())


def all_writes(stmt: Stmt) -> set[str]:
    """All locations written anywhere under a statement (recursive)."""
    writes: set[str] = set()

    def visit(s: Stmt) -> None:
        writes.update(stmt_def_use(s).writes)
        for child in _children(s):
            visit(child)

    visit(stmt)
    return writes


def all_reads(stmt: Stmt) -> set[str]:
    """All locations read anywhere under a statement (recursive)."""
    reads: set[str] = set()

    def visit(s: Stmt) -> None:
        reads.update(stmt_def_use(s).reads)
        for child in _children(s):
            visit(child)

    visit(stmt)
    return reads


def _children(stmt: Stmt) -> list[Stmt]:
    if isinstance(stmt, Block):
        return list(stmt.statements)
    if isinstance(stmt, If):
        children: list[Stmt] = list(stmt.then_body.statements)
        if stmt.else_body is not None:
            children.extend(stmt.else_body.statements)
        return children
    if isinstance(stmt, (ForEach, While)):
        return list(stmt.body.statements)
    if isinstance(stmt, TryCatch):
        children = list(stmt.try_body.statements)
        if stmt.catch_body is not None:
            children.extend(stmt.catch_body.statements)
        if stmt.finally_body is not None:
            children.extend(stmt.finally_body.statements)
        return children
    return []


# ----------------------------------------------------------------------
# Data dependence graph (Section 4.2)


@dataclass
class Dependence:
    """One dependence edge between statements."""

    source: int  # sid of the earlier statement (writer for flow deps)
    target: int  # sid of the dependent statement
    kind: str  # "flow", "lcfd", "control", "external"
    location: str = ""


@dataclass
class DependenceGraph:
    """Data-dependence graph over the statements of one loop body."""

    statements: list[Stmt] = field(default_factory=list)
    edges: list[Dependence] = field(default_factory=list)

    def edges_of_kind(self, kind: str) -> list[Dependence]:
        return [e for e in self.edges if e.kind == kind]

    def has_external_dependence(self) -> bool:
        return bool(self.edges_of_kind("external"))


def _flatten_with_control(
    block: Block, control: list[int]
) -> list[tuple[Stmt, list[int]]]:
    """Flatten a block into (statement, controlling-sids) pairs."""
    result: list[tuple[Stmt, list[int]]] = []
    for stmt in block.statements:
        result.append((stmt, list(control)))
        if isinstance(stmt, If):
            inner_control = control + [stmt.sid]
            result.extend(_flatten_with_control(stmt.then_body, inner_control))
            if stmt.else_body is not None:
                result.extend(_flatten_with_control(stmt.else_body, inner_control))
        elif isinstance(stmt, (ForEach, While)):
            result.extend(_flatten_with_control(stmt.body, control + [stmt.sid]))
        elif isinstance(stmt, Block):
            result.extend(_flatten_with_control(stmt, control))
        elif isinstance(stmt, TryCatch):
            result.extend(_flatten_with_control(stmt.try_body, control))
            if stmt.catch_body is not None:
                result.extend(_flatten_with_control(stmt.catch_body, control))
            if stmt.finally_body is not None:
                result.extend(_flatten_with_control(stmt.finally_body, control))
    return result


def build_loop_ddg(body: Block, cursor_var: str | None = None) -> DependenceGraph:
    """Build the dependence graph of a loop body.

    Includes intra-iteration flow dependences, loop-carried flow dependences
    (a read that can observe a previous iteration's write), control
    dependences, and external dependences (at least one write to an external
    location, per the paper's definition).
    """
    flat = _flatten_with_control(body, [])
    graph = DependenceGraph(statements=[stmt for stmt, _ in flat])
    summaries = {stmt.sid: stmt_def_use(stmt) for stmt, _ in flat}
    order = [stmt.sid for stmt, _ in flat]
    position = {sid: i for i, sid in enumerate(order)}

    # Control dependences.
    for stmt, controllers in flat:
        for controller in controllers:
            graph.edges.append(Dependence(controller, stmt.sid, "control"))

    # Flow dependences (conservative: no kill analysis; extra edges only make
    # slices larger, never unsound).
    for writer, _ in flat:
        written = summaries[writer.sid].writes
        if not written:
            continue
        for reader, _ in flat:
            common = written & summaries[reader.sid].reads
            common = {c for c in common if not c.startswith("@")}
            if not common:
                continue
            for location in common:
                if position[writer.sid] < position[reader.sid]:
                    graph.edges.append(
                        Dependence(writer.sid, reader.sid, "flow", location)
                    )
                else:
                    # A read at or before the write observes the previous
                    # iteration's value: a loop-carried flow dependence.
                    if cursor_var is not None and location == cursor_var:
                        continue  # the cursor's own advance is exempt (P2)
                    graph.edges.append(
                        Dependence(writer.sid, reader.sid, "lcfd", location)
                    )

    # External dependences: any pair touching the same external location with
    # at least one write.
    external = (DB_LOCATION, OUT_LOCATION)
    for first, _ in flat:
        for second, _ in flat:
            if position[first.sid] > position[second.sid]:
                continue
            for location in external:
                first_w = location in summaries[first.sid].writes
                second_w = location in summaries[second.sid].writes
                first_touch = first_w or location in summaries[first.sid].reads
                second_touch = second_w or location in summaries[second.sid].reads
                if first_touch and second_touch and (first_w or second_w):
                    graph.edges.append(
                        Dependence(first.sid, second.sid, "external", location)
                    )
    return graph


def loop_carried_vars(body: Block, cursor_var: str | None = None) -> set[str]:
    """Variables carrying values across iterations of a loop body.

    A variable is loop-carried when it is written in the body and some read
    of it can observe the previous iteration's value (read-before-write on
    some path, or a conditional write that may leave the old value).
    """
    graph = build_loop_ddg(body, cursor_var)
    return {edge.location for edge in graph.edges_of_kind("lcfd")}


# ----------------------------------------------------------------------
# Slicing (Weiser-style, over the loop body)


def slice_statements(graph: DependenceGraph, variable: str) -> set[int]:
    """Compute the sids of ``slice(R, end-of-R, variable)``.

    Statements that directly or transitively affect the variable's value at
    the end of the region, following flow/lcfd/control edges backwards.
    """
    writers = {
        stmt.sid
        for stmt in graph.statements
        if variable in stmt_def_use(stmt).writes
    }
    incoming: dict[int, list[Dependence]] = {}
    for edge in graph.edges:
        incoming.setdefault(edge.target, []).append(edge)

    result: set[int] = set()
    stack = list(writers)
    while stack:
        sid = stack.pop()
        if sid in result:
            continue
        result.add(sid)
        for edge in incoming.get(sid, []):
            if edge.kind in ("flow", "lcfd", "control") and edge.source not in result:
                stack.append(edge.source)
    return result


# ----------------------------------------------------------------------
# Liveness
#
# Every transfer below is gen/kill, so a loop body's live-out is the loop's
# live-out plus the body's upward-exposed reads (its live-in from an empty
# live-out).  Each loop body is summarised once and walked once, so one
# pass over a function is linear in its statement count at any nesting
# depth.


def live_before(
    statements: list[Stmt], live_out: set[str]
) -> tuple[set[str], dict[int, set[str]]]:
    """Backward liveness over a statement list.

    Returns (live-in of the list, map sid → live-after-that-statement).
    """
    live_after: dict[int, set[str]] = {}
    return _live_in(statements, set(live_out), {}, live_after), live_after


def live_after_loops(func: FunctionDef) -> dict[int, set[str]]:
    """Variables live immediately after each loop of a function, by loop sid."""
    _, live_after = live_before(func.body.statements, {RET_LOCATION})
    return {
        stmt.sid: {v for v in live_after[stmt.sid] if not v.startswith("@")}
        for stmt in walk_statements(func.body)
        if isinstance(stmt, (ForEach, While))
    }


def _live_in(
    statements: list[Stmt], live: set[str], exposed: dict, live_after: dict | None
) -> set[str]:
    """Live-in of a statement list whose live-out is ``live``.

    ``exposed`` holds each summarised loop body's upward-exposed reads, by
    the loop statement's identity.  With ``live_after`` None the walk only
    summarises: it records nothing and walks no loop body a second time.
    """
    for stmt in reversed(statements):
        live = _transfer(stmt, live, exposed, live_after)
    return live


def _transfer(
    stmt: Stmt, live: set[str], exposed: dict, live_after: dict | None
) -> set[str]:
    if live_after is not None:
        live_after[stmt.sid] = set(live)
    if isinstance(stmt, (Assign, ExprStmt, Return)):
        summary = stmt_def_use(stmt)
        killed = {w for w in summary.writes if not w.startswith("@")}
        result = (live - killed) | summary.reads
        # Mutating calls keep the receiver live (it is read and written).
        if isinstance(stmt, ExprStmt):
            result |= killed & live
        return result
    if isinstance(stmt, Block):
        return _live_in(stmt.statements, live, exposed, live_after)
    if isinstance(stmt, If):
        then_live = _live_in(stmt.then_body.statements, live, exposed, live_after)
        else_live = (
            _live_in(stmt.else_body.statements, live, exposed, live_after)
            if stmt.else_body is not None
            else live
        )
        return then_live | else_live | expr_reads(stmt.cond)
    if isinstance(stmt, (ForEach, While)):
        key = id(stmt)
        if key not in exposed:
            exposed[key] = _live_in(stmt.body.statements, set(), exposed, None)
        body_live = live | exposed[key]
        if isinstance(stmt, While):
            # After the body the condition is tested again.
            body_live |= expr_reads(stmt.cond)
        if live_after is not None:
            _live_in(stmt.body.statements, body_live, exposed, live_after)
        if isinstance(stmt, ForEach):
            return (body_live - {stmt.var}) | expr_reads(stmt.iterable)
        return body_live
    if isinstance(stmt, TryCatch):
        result = set(live)
        for body in (stmt.try_body, stmt.catch_body, stmt.finally_body):
            if body is not None:
                result |= _live_in(body.statements, live, exposed, live_after)
        return result
    return set(live)
