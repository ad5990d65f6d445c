"""Dataflow analyses: def/use sets, dependence graph, slicing, liveness.

These implement the program-analysis vocabulary of Section 4.2 of the
paper: flow dependences, *loop-carried* flow dependences (lcfd), *external*
dependences (database/file/console — the paper conservatively treats the
whole database as one location), program slices, and live variables.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple

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
    Return,
    Stmt,
    TryCatch,
    While,
    child_blocks,
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
#
# Expressions are never mutated after construction (``repro.lang``), so
# :func:`expr_facts` walks one once and keeps the result on it for every
# statement and program sharing it.  :func:`analysis_scope` drops these
# memos (and the statement indexes) when it ends: they die with the
# extraction that made them, not with the programs its report keeps.

_NO_NAMES: frozenset[str] = frozenset()
_memoised: list | None = None  # what the current analysis_scope memoised


@contextmanager
def analysis_scope():
    """Drop the expression facts and statement indexes made inside the
    block when it ends.  A nested scope belongs to the outermost one."""
    global _memoised
    if _memoised is not None:
        yield
        return
    _memoised = []
    try:
        yield
    finally:
        memoised, _memoised = _memoised, None
        for obj in memoised:
            obj._memo = None


def remember(obj, memo):
    """Keep ``memo`` on the node ``obj`` (read back as ``obj._memo``)."""
    obj._memo = memo
    if _memoised is not None:
        _memoised.append(obj)
    return memo


class ExprFacts(NamedTuple):
    """What evaluating one expression reads, writes and calls."""

    names: frozenset[str]  # every variable name, static receivers included
    reads: frozenset[str]  # variables and external locations read
    writes: frozenset[str]  # locations written
    calls: tuple[Expr, ...]  # every Call and MethodCall node, pre-order
    #: Whether evaluating it could be observable: it writes an external
    #: location, or calls anything but a database read.
    side_effects: bool


NO_FACTS = ExprFacts(_NO_NAMES, _NO_NAMES, _NO_NAMES, (), False)


def expr_facts(expr: Expr) -> ExprFacts:
    """The memoised :class:`ExprFacts` of ``expr``."""
    facts = expr._memo
    if facts is None:
        facts = remember(expr, _compute_facts(expr))
    return facts


def _compute_facts(expr: Expr) -> ExprFacts:
    names: set[str] = set()
    writes: set[str] = set()
    calls: list[Expr] = []
    db = side = False
    for node in walk_expressions(expr):
        kind = type(node)
        if kind is Name:
            names.add(node.ident)
        elif kind is Call:
            calls.append(node)
            db = db or node.func in DB_READ_CALLS or node.func in DB_WRITE_CALLS
            side = side or node.func not in DB_READ_CALLS
            if node.func in DB_WRITE_CALLS:
                writes.add(DB_LOCATION)
            elif node.func in OUTPUT_CALLS:
                writes.add(OUT_LOCATION)
        elif kind is MethodCall:
            calls.append(node)
            receiver = node.receiver
            if (
                (node.method in _MUTATING_METHODS or setter_to_column(node.method))
                and isinstance(receiver, Name)
                and receiver.ident not in STATIC_RECEIVERS
            ):
                writes.add(receiver.ident)
            if node.method == "println" and isinstance(receiver, FieldAccess):
                writes.add(OUT_LOCATION)
    if not (names or writes or calls):
        return NO_FACTS
    reads = names - STATIC_RECEIVERS
    if db:
        reads.add(DB_LOCATION)
    side = side or any(w.startswith("@") for w in writes)
    return ExprFacts(
        frozenset(names), frozenset(reads), frozenset(writes), tuple(calls), side
    )


@dataclass(frozen=True)
class DefUse:
    """Def/use summary of one statement."""

    reads: frozenset[str]
    writes: frozenset[str]


_NO_DEF_USE = DefUse(_NO_NAMES, _NO_NAMES)
_RET_WRITES = frozenset((RET_LOCATION,))


def stmt_def_use(stmt: Stmt) -> DefUse:
    """Compute the direct def/use sets of a statement (non-recursive for
    compound statements: only their condition / header counts)."""
    kind = type(stmt)
    if kind is Assign:
        facts = expr_facts(stmt.value)
        return DefUse(facts.reads, facts.writes | {stmt.target})
    if kind is ExprStmt:
        facts = expr_facts(stmt.expr)
        # A mutating method both reads and writes the receiver.
        receivers = {w for w in facts.writes if not w.startswith("@")}
        return DefUse(facts.reads | receivers, facts.writes)
    if kind is If or kind is While:
        return DefUse(expr_facts(stmt.cond).reads, _NO_NAMES)
    if kind is ForEach:
        return DefUse(expr_facts(stmt.iterable).reads, frozenset((stmt.var,)))
    if kind is Return:
        reads = expr_facts(stmt.value).reads if stmt.value is not None else _NO_NAMES
        return DefUse(reads, _RET_WRITES)
    return _NO_DEF_USE


def all_writes(stmt: Stmt) -> set[str]:
    """All locations written anywhere under a statement (recursive)."""
    return set().union(*(stmt_def_use(s).writes for s in walk_statements(stmt)))


def all_reads(stmt: Stmt) -> set[str]:
    """All locations read anywhere under a statement (recursive)."""
    return set().union(*(stmt_def_use(s).reads for s in walk_statements(stmt)))


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
        controls = isinstance(stmt, (If, ForEach, While))
        for child in child_blocks(stmt):
            inner = control + [stmt.sid] if controls else control
            result.extend(_flatten_with_control(child, inner))
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
    summaries = [stmt_def_use(stmt) for stmt, _ in flat]

    # Control dependences.
    for stmt, controllers in flat:
        for controller in controllers:
            graph.edges.append(Dependence(controller, stmt.sid, "control"))

    # Flow dependences (conservative: no kill analysis; extra edges only make
    # slices larger, never unsound).  A read at or before the write observes
    # the previous iteration's value: a loop-carried flow dependence, except
    # the cursor's own advance (P2).
    for i, (writer, _) in enumerate(flat):
        for j, (reader, _) in enumerate(flat):
            for location in summaries[i].writes & summaries[j].reads:
                if location.startswith("@") or (j <= i and location == cursor_var):
                    continue
                kind = "flow" if i < j else "lcfd"
                graph.edges.append(Dependence(writer.sid, reader.sid, kind, location))

    # External dependences: any pair touching the same external location with
    # at least one write.
    for i, (first, _) in enumerate(flat):
        for j in range(i, len(flat)):
            pair = (summaries[i], summaries[j])
            for location in (DB_LOCATION, OUT_LOCATION):
                if any(location in s.writes for s in pair) and all(
                    location in s.writes or location in s.reads for s in pair
                ):
                    graph.edges.append(
                        Dependence(first.sid, flat[j][0].sid, "external", location)
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
    from .index import function_index

    _, live_after = live_before(func.body.statements, {RET_LOCATION})
    return {
        stmt.sid: {v for v in live_after[stmt.sid] if not v.startswith("@")}
        for stmt in function_index(func).loops
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
        return then_live | else_live | expr_facts(stmt.cond).reads
    if isinstance(stmt, (ForEach, While)):
        key = id(stmt)
        if key not in exposed:
            exposed[key] = _live_in(stmt.body.statements, set(), exposed, None)
        body_live = live | exposed[key]
        if isinstance(stmt, While):
            # After the body the condition is tested again.
            body_live |= expr_facts(stmt.cond).reads
        if live_after is not None:
            _live_in(stmt.body.statements, body_live, exposed, live_after)
        if isinstance(stmt, ForEach):
            return (body_live - {stmt.var}) | expr_facts(stmt.iterable).reads
        return body_live
    if isinstance(stmt, TryCatch):
        result = set(live)
        for body in (stmt.try_body, stmt.catch_body, stmt.finally_body):
            if body is not None:
                result |= _live_in(body.statements, live, exposed, live_after)
        return result
    return set(live)
