"""AST normalisations applied before D-IR construction.

The paper describes these preprocessing steps:

* *output statements* — "we preprocess the program to replace output
  statements with appends to a (global) string (which can be treated as an
  ordered collection), and print its contents at the end" (Section 2 /
  Appendix B).  We append printed values to the global ordered collection
  ``__out__``.
* *JDBC cursor loops* — ``rs = executeQuery(...); while (rs.next()) {...}``
  is the cursor-loop idiom over a result set; it is normalised into the
  equivalent ``for (rs : executeQuery(...)) {...}``.
* *tail returns* — ``if (c) { ...; return a; } rest`` becomes
  ``if (c) { ...; return a; } else { rest }`` so that conditional-region
  merging sees both arms.
* *boolean early exit* — ``for (t : Q) { if (p) { found = true; break; } }``
  drops the ``break`` (Appendix B: "the return/break can potentially be
  removed" when the only computation is the boolean assignment).

On top of the paper's normalisations sits the **precision layer** (enabled
by default, disabled with ``precision=False``): SSA-based sparse
conditional constant propagation and copy propagation from
:mod:`repro.analysis.ssa`, applied as three AST-level enabling transforms
before the D-IR translation —

* **constant folding** — variable uses with a proven constant value become
  literals (carrying the span of the use they replace), and pure operator
  trees over literals fold;
* **dead-branch pruning** — an ``if`` whose guard is a proven boolean
  constant is replaced by its live arm.  Guards containing calls never
  fold (calls are lattice-bottom), so a pruned branch is genuinely
  unreachable and any lint blocker inside it is discharged for free;
* **copy propagation** — a use of ``x`` whose value is provably the same
  SSA version as some earlier ``x = y`` copy source is rewritten to ``y``,
  and the cursor-``while`` normalisation follows such copy chains
  (``q = executeQuery(...); rs = q; while (rs.next())``).

Every transform preserves source spans: folded literals inherit the span
of the expression they replace, pruned arms splice their statements (and
spans) into the parent block, and copy propagation replaces a ``Name`` by
one carrying the same span.

The passes edit statements of their own copy in place but never mutate an
expression (see :mod:`repro.lang.ast_nodes`): a rewritten expression is a
new node, and an unchanged one stays shared with the input program.
"""

from __future__ import annotations

import operator
from dataclasses import fields as dataclass_fields
from dataclasses import replace

from ..analysis.dataflow import all_reads, all_writes
from ..analysis.effects import EffectSummary, function_effects
from ..analysis.index import function_index
from ..analysis.ssa import SCCPResult, SSAForm, build_ssa, resolve_copy, sccp
from ..interp.values import setter_to_column
from ..lang import (
    EXPRESSION_FIELD,
    Assign,
    Block,
    BoolLit,
    Break,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    ForEach,
    FunctionDef,
    If,
    IntLit,
    MethodCall,
    Name,
    New,
    Program,
    Return,
    Stmt,
    StringLit,
    While,
    child_blocks,
    clone_statements,
    number_statements,
    statement_expressions,
    walk_expressions,
    walk_statements,
)

OUT_VAR = "__out__"


def preprocess_program(program: Program, precision: bool = True) -> Program:
    """Return a normalised copy of ``program`` (ids renumbered).

    The copy has its own statements and shares unchanged expressions with
    ``program``, which is left as it was.

    ``precision`` toggles the SSA-based enabling transforms (constant
    folding, dead-branch pruning, copy propagation); the paper's own
    normalisations always run.
    """
    # Effect summaries sharpen SSA only at a call to a function of this
    # program; every other call is opaque with or without them.  They are
    # read off the input, which this pass leaves as it was.
    defined = {func.name for func in program.functions}
    calls_own = any(
        isinstance(node, Call) and node.func in defined
        for func in program.functions
        for info in function_index(func).entries
        for node in info.facts.calls
    )
    effects = function_effects(program) if precision and calls_own else None
    result = clone_statements(program)
    for func in result.functions:
        _preprocess_function(func, effects=effects, precision=precision)
    number_statements(result)
    return result


def _preprocess_function(
    func: FunctionDef,
    effects: dict[str, EffectSummary] | None = None,
    precision: bool = True,
) -> None:
    had_prints = _rewrite_prints(func.body)
    if precision:
        _apply_precision(func, effects)
    _normalize_cursor_while(func.body, precision=precision)
    _normalize_boolean_return_loops(func.body)
    _normalize_tail_returns(func.body)
    _drop_unreachable(func.body)
    _remove_boolean_breaks(func.body)
    if had_prints:
        init = Assign(target=OUT_VAR, value=New(class_name="ArrayList", args=[]))
        func.body.statements.insert(0, init)


# ----------------------------------------------------------------------
# Precision layer: SSA-driven enabling transforms


def _apply_precision(
    func: FunctionDef, effects: dict[str, EffectSummary] | None
) -> None:
    # Folding can expose new dead branches and pruning can expose new
    # constants, so iterate fold+prune to a (small) fixpoint before the
    # single copy-propagation round.  A round that changed nothing leaves
    # its SSA valid for copy propagation; only a capped fixpoint rebuilds.
    for _round in range(4):
        number_statements(func)
        ssa = build_ssa(func, effects)
        result = sccp(ssa)
        changed = _fold_constants(result)
        changed |= _prune_dead_branches(func.body, result)
        if not changed:
            break
    else:
        number_statements(func)
        ssa = build_ssa(func, effects)
    _propagate_copies(ssa)


def _literal_for(value, template: Expr) -> Expr | None:
    """A literal node for a proven constant, carrying ``template``'s span."""
    if isinstance(value, bool):
        return BoolLit(value=value, line=template.line, col=template.col)
    if isinstance(value, int):
        return IntLit(value=value, line=template.line, col=template.col)
    if isinstance(value, str):
        return StringLit(value=value, line=template.line, col=template.col)
    return None


def _fold_constants(result: SCCPResult) -> bool:
    """Replace proven-constant variable uses (and the pure operator trees
    they complete) with literal nodes, in executable statements only.

    Every statement with an expression sits in exactly one CFG block, so
    the executable blocks list exactly the statements to fold."""
    changed = False

    def fold(expr: Expr, sid: int) -> Expr:
        nonlocal changed
        if isinstance(expr, Name):
            const = result.const_at(sid, expr.ident)
            literal = None if const is None else _literal_for(const, expr)
            if literal is not None:
                changed = True
                return literal
            return expr
        expr = _rewrite_children(expr, lambda child: fold(child, sid))
        value = result.eval_at(sid, expr)
        literal = None if value is None else _literal_for(value, expr)
        if literal is not None and not isinstance(
            expr, (IntLit, BoolLit, StringLit)
        ):
            changed = True
            return literal
        return expr

    for block in result.ssa.cfg.blocks:
        if block.index in result.executable_blocks:
            for stmt in block.statements:
                _rewrite_stmt_exprs(stmt, lambda expr: fold(expr, stmt.sid))
    return changed


def _prune_dead_branches(block: Block, result: SCCPResult) -> bool:
    """Replace each If with a proven-dead arm by its live arm's statements."""
    changed = False
    rebuilt: list[Stmt] = []
    for stmt in block.statements:
        verdict = (
            result.dead_branches.get(stmt.sid) if isinstance(stmt, If) else None
        )
        if verdict == "then":
            changed = True
            if stmt.else_body is not None:
                _prune_dead_branches(stmt.else_body, result)
                rebuilt.extend(stmt.else_body.statements)
            continue
        if verdict == "else":
            changed = True
            _prune_dead_branches(stmt.then_body, result)
            rebuilt.extend(stmt.then_body.statements)
            continue
        for child in child_blocks(stmt):
            changed |= _prune_dead_branches(child, result)
        rebuilt.append(stmt)
    block.statements[:] = rebuilt
    return changed


#: Method-call receivers that must keep their original name: rewriting the
#: receiver of a mutating/consuming call would change which variable the
#: analyses see as redefined (the objects alias, but lint attribution and
#: the SSA def model key on the name).
_RECEIVER_PRESERVING = {"next", "close"}


def _propagate_copies(ssa: SSAForm) -> None:
    from ..analysis.dataflow import _MUTATING_METHODS

    def rewrite(expr: Expr, sid: int) -> Expr:
        if isinstance(expr, Name):
            source = resolve_copy(ssa, sid, expr.ident)
            if source is None:
                return expr
            return Name(source, line=expr.line, col=expr.col)  # span stays with the use
        if isinstance(expr, MethodCall):
            preserve = (
                expr.method in _MUTATING_METHODS
                or expr.method in _RECEIVER_PRESERVING
                or setter_to_column(expr.method) is not None
            )
            receiver = expr.receiver
            if not (preserve and isinstance(receiver, Name)):
                receiver = rewrite(receiver, sid)
            args = [rewrite(arg, sid) for arg in expr.args]
            if receiver is expr.receiver and all(map(operator.is_, args, expr.args)):
                return expr
            return replace(expr, receiver=receiver, args=args)
        return _rewrite_children(expr, lambda child: rewrite(child, sid))

    # A statement outside the CFG (unreachable) has no SSA environment,
    # so no use in it resolves to a copy.
    for block in ssa.cfg.blocks:
        for stmt in block.statements:
            _rewrite_stmt_exprs(stmt, lambda expr: rewrite(expr, stmt.sid))


def _rewrite_children(expr: Expr, fn) -> Expr:
    """Apply ``fn`` to each direct sub-expression of ``expr``.

    Returns a new node when any child changed, else ``expr`` itself.
    """
    changed = {}
    for f in dataclass_fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            new = fn(value)
            if new is not value:
                changed[f.name] = new
        elif isinstance(value, list) and value and isinstance(value[0], Expr):
            new = [fn(item) for item in value]
            if not all(map(operator.is_, new, value)):
                changed[f.name] = new
    return replace(expr, **changed) if changed else expr


def _rewrite_stmt_exprs(stmt: Stmt, fn) -> None:
    for expr in statement_expressions(stmt):
        setattr(stmt, EXPRESSION_FIELD[type(stmt)], fn(expr))


# ----------------------------------------------------------------------
# print → __out__ appends


def _rewrite_prints(block: Block) -> bool:
    changed = False
    for i, stmt in enumerate(block.statements):
        if isinstance(stmt, ExprStmt):
            printed = _printed_value(stmt.expr)
            if printed is not None:
                block.statements[i] = ExprStmt(
                    expr=MethodCall(
                        receiver=Name(OUT_VAR), method="add", args=[printed]
                    ),
                    line=stmt.line,
                    col=stmt.col,
                )
                changed = True
                continue
        for child in child_blocks(stmt):
            changed |= _rewrite_prints(child)
    return changed


def _printed_value(expr: Expr) -> Expr | None:
    if isinstance(expr, Call) and expr.func in ("print", "println"):
        return expr.args[0] if expr.args else None
    if (
        isinstance(expr, MethodCall)
        and expr.method in ("println", "print")
        and isinstance(expr.receiver, FieldAccess)
        and isinstance(expr.receiver.receiver, Name)
        and expr.receiver.receiver.ident == "System"
    ):
        return expr.args[0] if expr.args else None
    return None


# ----------------------------------------------------------------------
# while (rs.next()) → for (rs : ...)


def _normalize_cursor_while(block: Block, precision: bool = True) -> None:
    for i, stmt in enumerate(block.statements):
        for child in child_blocks(stmt):
            _normalize_cursor_while(child, precision=precision)
        if not (
            isinstance(stmt, While)
            and isinstance(stmt.cond, MethodCall)
            and stmt.cond.method == "next"
            and isinstance(stmt.cond.receiver, Name)
        ):
            continue
        cursor = stmt.cond.receiver.ident
        if _cursor_escapes_as_value(stmt.body, cursor):
            continue
        # Find the defining query assignment earlier in this block (other
        # statements such as accumulator initialisations may intervene).
        defining: Assign | None = None
        iterable = cursor
        for prior in reversed(block.statements[:i]):
            if isinstance(prior, Assign) and prior.target == cursor:
                if (
                    isinstance(prior.value, Call)
                    and prior.value.func in ("executeQuery", "executeQueryCursor")
                ):
                    defining = prior
                break
        if defining is None and precision:
            chain = _resolve_cursor_chain(block.statements[:i], cursor)
            if chain is not None:
                defining, iterable = chain
        if defining is None:
            continue
        defining.value = Call(
            func="executeQuery", args=defining.value.args,
            line=defining.line, col=defining.col,
        )
        # `for (rs : rs)` — the iterable is evaluated before the cursor
        # variable is rebound per row, so the self-shadowing is sound, and
        # the body's `rs.getX(...)` accessors keep working unchanged.  For a
        # copy chain the iterable is the chain's ultimate source variable
        # (`for (rs : q)`), which aliases the same materialised list.
        block.statements[i] = ForEach(
            var=cursor, iterable=Name(iterable), body=stmt.body,
            line=stmt.line, col=stmt.col,
        )


def _cursor_escapes_as_value(body: Block, cursor: str) -> bool:
    """True when the loop body uses the cursor other than as a getter receiver.

    The rewrite to ``for (rs : ...)`` rebinds ``rs`` to each *row*, which is
    only equivalent while the body merely reads fields through it.  Storing,
    passing, or returning the bare cursor observes the cursor object itself
    (``v.add(rs)`` would collect rows instead of the cursor), and advancing
    or closing it mid-body changes how many rows the loop sees — any such
    use leaves the ``while`` un-normalised.
    """

    def escapes(expr: Expr) -> bool:
        uses = receivers = 0
        for node in walk_expressions(expr):
            if isinstance(node, Name) and node.ident == cursor:
                uses += 1
            elif (
                isinstance(node, MethodCall)
                and isinstance(node.receiver, Name)
                and node.receiver.ident == cursor
            ):
                if node.method in ("next", "close"):
                    return True  # consumes the cursor mid-iteration
                receivers += 1
        return uses > receivers

    return any(
        escapes(expr)
        for inner in walk_statements(body)
        for expr in statement_expressions(inner)
    )


def _resolve_cursor_chain(
    prefix: list[Stmt], cursor: str
) -> tuple[Assign, str] | None:
    """Follow ``rs = q`` copies back to a query assignment.

    Strict about everything between the query call and the ``while``:
    besides the chain's own copy assignments, no statement may read *or*
    write any chain variable — a read could consume the cursor, and
    materialising it to a list would then change what the loop sees.
    (The direct single-variable pattern above keeps its historical, laxer
    matching.)
    """
    target = cursor
    chain_vars = {cursor}
    chain_positions: set[int] = set()
    defining: Assign | None = None
    start = -1
    j = len(prefix) - 1
    while j >= 0:
        stmt = prefix[j]
        if isinstance(stmt, Assign) and stmt.target == target:
            if isinstance(stmt.value, Call) and stmt.value.func in (
                "executeQuery",
                "executeQueryCursor",
            ):
                defining = stmt
                start = j
                break
            if isinstance(stmt.value, Name):
                chain_positions.add(j)
                target = stmt.value.ident
                if target in chain_vars:
                    return None
                chain_vars.add(target)
                j -= 1
                continue
            return None
        j -= 1
    if defining is None or target == cursor:
        return None
    for k in range(start + 1, len(prefix)):
        if k in chain_positions:
            continue
        stmt = prefix[k]
        if chain_vars & (all_reads(stmt) | all_writes(stmt)):
            return None
    return defining, target


# ----------------------------------------------------------------------
# Tail-return normalisation and unreachable-code removal


def _normalize_tail_returns(block: Block) -> None:
    for stmt in block.statements:
        for child in child_blocks(stmt):
            _normalize_tail_returns(child)
    i = 0
    while i < len(block.statements):
        stmt = block.statements[i]
        rest = block.statements[i + 1 :]
        if (
            isinstance(stmt, If)
            and stmt.else_body is None
            and _ends_with_return(stmt.then_body)
            and rest
        ):
            stmt.else_body = Block(statements=rest)
            _normalize_tail_returns(stmt.else_body)
            del block.statements[i + 1 :]
            return
        i += 1


def _ends_with_return(block: Block) -> bool:
    return bool(block.statements) and isinstance(block.statements[-1], Return)


def _drop_unreachable(block: Block) -> None:
    for i, stmt in enumerate(block.statements):
        for child in child_blocks(stmt):
            _drop_unreachable(child)
        if isinstance(stmt, (Return, Break)):
            del block.statements[i + 1 :]
            return


# ----------------------------------------------------------------------
# Boolean return-based existence checks (Appendix B: "sometimes the loop
# can have an early exit ... if the only computation inside the loop is the
# boolean value assignment, the return/break can potentially be removed").
#
#     for (t : Q) { if (p) { return true; } }
#     return false;
#
# becomes the flag form the existence rules recognise:
#
#     __ret_flag0 = false;
#     for (t : Q) { if (p) { __ret_flag0 = true; } }
#     return __ret_flag0;

_flag_counter = 0


def _normalize_boolean_return_loops(block: Block) -> None:
    global _flag_counter
    for stmt in block.statements:
        for child in child_blocks(stmt):
            _normalize_boolean_return_loops(child)
    i = 0
    while i < len(block.statements):
        stmt = block.statements[i]
        rest = block.statements[i + 1 :]
        if (
            isinstance(stmt, ForEach)
            and len(stmt.body.statements) == 1
            and isinstance(stmt.body.statements[0], If)
            and rest
            and isinstance(rest[0], Return)
            and isinstance(rest[0].value, BoolLit)
        ):
            branch = stmt.body.statements[0]
            then = branch.then_body.statements
            if (
                branch.else_body is None
                and len(then) == 1
                and isinstance(then[0], Return)
                and isinstance(then[0].value, BoolLit)
                and then[0].value.value != rest[0].value.value
            ):
                flag = f"__ret_flag{_flag_counter}"
                _flag_counter += 1
                inner_value = then[0].value
                default_value = rest[0].value
                branch.then_body.statements[0] = Assign(target=flag, value=inner_value)
                block.statements[i : i + 2] = [
                    Assign(target=flag, value=default_value),
                    stmt,
                    Return(value=Name(flag)),
                ]
                i += 2
        i += 1


# ----------------------------------------------------------------------
# Boolean early-exit removal


def _remove_boolean_breaks(block: Block) -> None:
    for stmt in block.statements:
        for child in child_blocks(stmt):
            _remove_boolean_breaks(child)
        if isinstance(stmt, ForEach):
            _try_remove_break(stmt)


def _try_remove_break(loop: ForEach) -> None:
    """Drop a ``break`` that immediately follows a boolean assignment when it
    is the loop body's only other computation."""
    body = loop.body.statements
    if len(body) != 1 or not isinstance(body[0], If):
        return
    branch = body[0]
    if branch.else_body is not None:
        return
    then = branch.then_body.statements
    if (
        len(then) == 2
        and isinstance(then[0], Assign)
        and isinstance(then[0].value, BoolLit)
        and isinstance(then[1], Break)
    ):
        del then[1]
