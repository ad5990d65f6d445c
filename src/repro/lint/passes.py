"""The registered lint passes.

Soundness passes (EQ1xx) run over the **preprocessed** function so their
findings line up with what the D-IR builder will see; each finding is
anchored to the nearest enclosing cursor loop (``loop_sid``).  The
extraction gate widens loop-scoped blockers to enclosing loops (see
:func:`repro.lint.engine.loop_nesting`), matching how the builder's loop
translation poisons outward.

Anti-pattern passes (EQ3xx) run over the function **as parsed**: cursor
normalisation erases the idioms they detect (``executeQueryCursor``
becomes ``executeQuery``, ``while (rs.next())`` becomes ``for``), and
their spans should point at the code the developer wrote.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..analysis import DB_READ_CALLS, DB_WRITE_CALLS
from ..analysis.effects import BUILTIN_CALLS
from ..interp.values import setter_to_column
from ..lang import (
    Assign,
    Binary,
    BoolLit,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    ForEach,
    IntLit,
    MethodCall,
    Name,
    Return,
    Stmt,
    StringLit,
    TryCatch,
)
from .diagnostics import Diagnostic, Severity
from .registry import LintContext, lint_pass


def _own_calls(ctx: LintContext, loop: ForEach) -> Iterator[tuple[Stmt, Expr]]:
    """(statement, call-expression) pairs directly owned by ``loop``: in
    statements whose *nearest* enclosing cursor loop is ``loop`` (nested
    ``ForEach`` loops report their own findings)."""
    for info in ctx.index.owned(loop):
        for node in info.facts.calls:
            yield info.stmt, node


# ----------------------------------------------------------------------
# EQ101 / EQ102 — side effects and purity of calls inside cursor loops


@lint_pass("loop-side-effects", codes=("EQ101", "EQ102"))
def check_loop_side_effects(ctx: LintContext) -> Iterable[Diagnostic]:
    """Database writes and un-inlinable calls inside cursor loops.

    A direct ``executeUpdate``-family call violates precondition P3.  A
    call to a user function is resolved through the transitive effect
    summaries: a callee that (transitively) writes the database is the same
    P3 violation one level removed; a callee the builder cannot inline
    (undefined, or recursive) would be silently treated as a no-op in
    statement position — the classic soundness gap this pass closes.
    """
    for loop in ctx.index.cursor_loops:
        for _stmt, node in _own_calls(ctx, loop):
            if not isinstance(node, Call):
                continue
            if node.func in DB_WRITE_CALLS:
                yield ctx.diag(
                    "EQ101",
                    node,
                    f"{node.func}(...) executes per row of the cursor",
                    loop_sid=loop.sid,
                )
            elif node.func in BUILTIN_CALLS:
                continue  # reads and prints are modelled soundly
            else:
                effect = ctx.effects.get(node.func)
                if effect is None:
                    yield ctx.diag(
                        "EQ102",
                        node,
                        f"{node.func!r} is not defined in this program",
                        loop_sid=loop.sid,
                    )
                elif effect.opaque:
                    why = "recursive" if effect.recursive else "calls unknown code"
                    yield ctx.diag(
                        "EQ102",
                        node,
                        f"{node.func!r} cannot be inlined ({why})",
                        loop_sid=loop.sid,
                    )
                elif effect.db_write:
                    yield ctx.diag(
                        "EQ101",
                        node,
                        f"{node.func!r} transitively writes the database",
                        loop_sid=loop.sid,
                    )


# ----------------------------------------------------------------------
# EQ103 — alias / escape analysis


@lint_pass("alias-escape", codes=("EQ103",))
def check_alias_escape(ctx: LintContext) -> Iterable[Diagnostic]:
    """Values escaping the extraction model.

    Two shapes:

    * an entity **setter** inside a cursor loop (``t.setX(...)``) — the
      builder marks only the receiver opaque, but the mutation may be
      visible through aliases; flagged as a variable-scoped blocker on the
      receiver;
    * the **iterated result set** passed as an argument to a function the
      analysis cannot prove leaves it intact (undefined callee, or a known
      callee that mutates that parameter) — flagged loop-wide, because a
      mutated source collection invalidates the fold entirely.

    When the precision layer is on, points-to / escape proofs *downgrade*
    findings whose soundness obligation is discharged to informational:

    * a setter receiver proven function-local (``is_function_local``) —
      nothing outside the function can observe the mutation;
    * a result set passed to a *defined* callee whose summary proves the
      argument position neither escapes nor is mutated
      (``escapes_params`` is sound even for opaque callees: anything
      reaching unknown code is in the set).

    A call site where the variable provably no longer denotes the
    iterated result set (rebound between loop and call) is skipped
    entirely.
    """
    loops = ctx.index.cursor_loops

    for loop in loops:
        for stmt, node in _own_calls(ctx, loop):
            if (
                isinstance(node, MethodCall)
                and isinstance(stmt, ExprStmt)
                and setter_to_column(node.method) is not None
                and isinstance(node.receiver, Name)
            ):
                pt = ctx.pointsto
                if pt is not None and pt.is_function_local(
                    stmt.sid, node.receiver.ident
                ):
                    yield ctx.diag(
                        "EQ103",
                        node,
                        f"entity {node.receiver.ident!r} is mutated via "
                        f".{node.method}(...) inside the loop, but is "
                        "proven local to this function",
                        variable=node.receiver.ident,
                        loop_sid=loop.sid,
                        severity=Severity.INFO,
                    )
                else:
                    yield ctx.diag(
                        "EQ103",
                        node,
                        f"entity {node.receiver.ident!r} is mutated via "
                        f".{node.method}(...) inside the loop",
                        variable=node.receiver.ident,
                        loop_sid=loop.sid,
                    )

    # Result-set escape: scan the whole function for calls taking a loop's
    # iterable as an argument.
    iterables: dict[str, ForEach] = {}
    for loop in loops:
        if isinstance(loop.iterable, Name):
            iterables.setdefault(loop.iterable.ident, loop)
    if not iterables:
        return

    for info in ctx.index.entries:
        stmt = info.stmt
        for node in info.facts.calls:
            if not isinstance(node, Call) or node.func in BUILTIN_CALLS:
                continue
            effect = ctx.effects.get(node.func)
            for pos, arg in enumerate(node.args):
                if not (isinstance(arg, Name) and arg.ident in iterables):
                    continue
                loop = iterables[arg.ident]
                pt = ctx.pointsto
                if pt is not None:
                    loop_objs = pt.objects_at(loop.sid, arg.ident)
                    here_objs = pt.objects_at(stmt.sid, arg.ident)
                    if (
                        loop_objs
                        and here_objs
                        and not pt.may_alias(stmt.sid, arg.ident, loop_objs)
                    ):
                        continue  # rebound: not the iterated result set
                if effect is None or effect.opaque:
                    # Inside its own loop the call is already an EQ102
                    # blocker; elsewhere the escape itself is the finding.
                    if info.cursor_loop is loop:
                        continue
                    if (
                        ctx.precision
                        and effect is not None
                        and pos not in effect.escapes_params
                        and pos not in effect.mutates_params
                    ):
                        yield ctx.diag(
                            "EQ103",
                            node,
                            f"result set {arg.ident!r} is passed to "
                            f"{node.func!r}, which provably neither "
                            "retains nor mutates it",
                            loop_sid=loop.sid,
                            severity=Severity.INFO,
                        )
                    else:
                        yield ctx.diag(
                            "EQ103",
                            node,
                            f"result set {arg.ident!r} escapes to "
                            f"{node.func!r}, which cannot be analysed",
                            loop_sid=loop.sid,
                        )
                elif pos in effect.mutates_params:
                    yield ctx.diag(
                        "EQ103",
                        node,
                        f"result set {arg.ident!r} may be mutated by "
                        f"{node.func!r}",
                        loop_sid=loop.sid,
                    )


# ----------------------------------------------------------------------
# EQ104 — double consumption of a forward-only cursor


@lint_pass("cursor-consumption", codes=("EQ104",))
def check_cursor_consumption(ctx: LintContext) -> Iterable[Diagnostic]:
    """A forward-only cursor iterated by more than one loop.

    Fires only for genuinely cursor-backed values: a variable defined by
    ``executeQueryCursor``, or the self-shadowing ``for (rs : rs)`` form
    that cursor-``while`` normalisation produces.  Materialised
    ``executeQuery`` results are plain collections — iterating those twice
    is sound and not flagged.
    """
    defs: dict[str, Expr] = {}
    for info in ctx.index.entries:
        if isinstance(info.stmt, Assign):
            defs.setdefault(info.stmt.target, info.stmt.value)

    by_var: dict[str, list[ForEach]] = {}
    for loop in ctx.index.cursor_loops:
        if isinstance(loop.iterable, Name):
            by_var.setdefault(loop.iterable.ident, []).append(loop)

    for var, loops in by_var.items():
        if len(loops) < 2:
            continue
        defining = defs.get(var)
        cursorish = any(loop.var == var for loop in loops) or (
            isinstance(defining, Call) and defining.func == "executeQueryCursor"
        )
        if not cursorish:
            continue
        first = loops[0]
        for loop in loops[1:]:
            yield ctx.diag(
                "EQ104",
                loop,
                f"{var!r} was already exhausted by the loop at line "
                f"{first.line}",
                loop_sid=loop.sid,
            )


# ----------------------------------------------------------------------
# EQ105 / EQ106 — exception paths and early exits inside fold candidates


@lint_pass("loop-exit-safety", codes=("EQ105", "EQ106"))
def check_loop_exit_safety(ctx: LintContext) -> Iterable[Diagnostic]:
    """Abnormal control flow the fold model cannot express.

    Mirrors the builder's abnormal-control-flow test: any ``break``,
    ``continue``, or ``return`` surviving preprocessing (boolean early
    exits are normalised away before this pass runs), and any try/catch,
    make the iteration count observable and the fold translation unsound.
    """
    names = {Break: "break", Continue: "continue", Return: "return"}
    for loop in ctx.index.cursor_loops:
        for info in ctx.index.owned(loop):
            stmt = info.stmt
            if isinstance(stmt, (Break, Continue, Return)):
                yield ctx.diag(
                    "EQ105",
                    stmt,
                    f"'{names[type(stmt)]}' exits the loop mid-iteration",
                    loop_sid=loop.sid,
                )
            elif isinstance(stmt, TryCatch):
                yield ctx.diag("EQ106", stmt, loop_sid=loop.sid)


# ----------------------------------------------------------------------
# EQ301 — N+1 query-in-loop


@lint_pass("n-plus-one", codes=("EQ301",))
def check_query_in_loop(ctx: LintContext) -> Iterable[Diagnostic]:
    """Database reads executed per iteration of any loop (raw AST).

    Loop headers are exempt — ``for (t : executeQuery(...))`` evaluates its
    iterable once — but a read in the header of a loop that is itself
    nested inside another loop does fire.
    """
    for info in ctx.raw_index.entries:
        if not info.loops:
            continue
        for node in info.facts.calls:
            if isinstance(node, Call) and node.func in DB_READ_CALLS:
                yield ctx.diag(
                    "EQ301",
                    node,
                    f"{node.func}(...) runs once per iteration of the "
                    "enclosing loop",
                )


# ----------------------------------------------------------------------
# EQ302 — SQL built by string concatenation


_LITERALS = (StringLit, IntLit, FloatLit, BoolLit)


def _concat_parts(expr: Expr) -> list[Expr]:
    if isinstance(expr, Binary) and expr.op == "+":
        return _concat_parts(expr.left) + _concat_parts(expr.right)
    return [expr]


@lint_pass("sql-concat", codes=("EQ302",))
def check_sql_concatenation(ctx: LintContext) -> Iterable[Diagnostic]:
    """SQL text concatenated from non-literal parts (raw AST).

    A taint walk over the function's assignments, mirroring the value map
    the D-IR builder computes: a variable is tainted when its value is a
    ``+`` chain mixing string literals with non-literal parts (the builder
    turns each such part into a synthesised ``__pN`` query parameter), or a
    copy of a tainted variable.  A database call whose SQL argument is
    tainted — or is such a chain directly — is flagged.
    """
    tainted: set[str] = set()
    stringish: set[str] = set()
    index = ctx.raw_index
    assigns = [
        info.stmt for info in index.entries if isinstance(info.stmt, Assign)
    ]
    for stmt in assigns:
        if isinstance(stmt.value, StringLit):
            stringish.add(stmt.target)

    def chain_taints(parts: list[Expr]) -> bool:
        has_string = any(
            isinstance(p, StringLit)
            or (isinstance(p, Name) and p.ident in (stringish | tainted))
            for p in parts
        )
        non_literal = any(not isinstance(p, _LITERALS) for p in parts)
        carries = any(isinstance(p, Name) and p.ident in tainted for p in parts)
        return carries or (has_string and non_literal)

    changed = True
    while changed:
        changed = False
        for stmt in assigns:
            if stmt.target in tainted:
                continue
            value = stmt.value
            hit = False
            if isinstance(value, Name) and value.ident in tainted:
                hit = True
            elif isinstance(value, Binary) and value.op == "+":
                hit = chain_taints(_concat_parts(value))
            if hit:
                tainted.add(stmt.target)
                changed = True

    for info in index.entries:
        for node in info.facts.calls:
            if (
                not isinstance(node, Call)
                or node.func not in (DB_READ_CALLS | DB_WRITE_CALLS)
                or not node.args
            ):
                continue
            sql = node.args[0]
            if isinstance(sql, Binary) and sql.op == "+":
                if chain_taints(_concat_parts(sql)):
                    yield ctx.diag(
                        "EQ302",
                        sql,
                        f"the {node.func} argument splices program "
                        "values into the SQL text",
                    )
            elif isinstance(sql, Name) and sql.ident in tainted:
                yield ctx.diag(
                    "EQ302",
                    node,
                    f"{sql.ident!r} was assembled by concatenation "
                    "before reaching " + node.func,
                )


# ----------------------------------------------------------------------
# EQ303 — dead query results


@lint_pass("dead-result", codes=("EQ303",))
def check_dead_results(ctx: LintContext) -> Iterable[Diagnostic]:
    """Query results that are never read (raw AST, flow-insensitive)."""
    entries = ctx.raw_index.entries
    used: set[str] = set()
    for info in entries:
        used |= info.facts.names

    for info in entries:
        stmt = info.stmt
        if (
            isinstance(stmt, ExprStmt)
            and isinstance(stmt.expr, Call)
            and stmt.expr.func in DB_READ_CALLS
        ):
            yield ctx.diag(
                "EQ303",
                stmt.expr,
                f"the {stmt.expr.func} result is discarded",
            )
        elif (
            isinstance(stmt, Assign)
            and isinstance(stmt.value, Call)
            and stmt.value.func in DB_READ_CALLS
            and stmt.target not in used
        ):
            yield ctx.diag(
                "EQ303",
                stmt,
                f"{stmt.target!r} is assigned a {stmt.value.func} result "
                "but never read",
                variable=stmt.target,
            )


# ----------------------------------------------------------------------
# EQ304 — unclosed cursors


@lint_pass("unclosed-cursor", codes=("EQ304",))
def check_unclosed_cursors(ctx: LintContext) -> Iterable[Diagnostic]:
    """``executeQueryCursor`` results with no ``close()`` call (raw AST)."""
    entries = ctx.raw_index.entries
    closed: set[str] = set()
    for info in entries:
        for node in info.facts.calls:
            if (
                isinstance(node, MethodCall)
                and node.method == "close"
                and isinstance(node.receiver, Name)
            ):
                closed.add(node.receiver.ident)

    for info in entries:
        stmt = info.stmt
        if (
            isinstance(stmt, Assign)
            and isinstance(stmt.value, Call)
            and stmt.value.func == "executeQueryCursor"
            and stmt.target not in closed
        ):
            yield ctx.diag(
                "EQ304",
                stmt,
                f"cursor {stmt.target!r} is opened here",
                variable=stmt.target,
            )
