"""Program rewriting to use extracted SQL (paper Section 5.2).

The extracted assignment ``v = <equivalent SQL>`` is inserted immediately
after the cursor loop that computed ``v``; transitive dead-code elimination
then removes the parts of the original program the extraction made
redundant — typically the whole loop.  Partial extraction falls out
naturally: when some variable in the loop could not be extracted, the loop
survives with only the statements that variable needs (paper Section 5.3's
heuristic decides whether that is worthwhile; :func:`loop_extractions`
applies it).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import (
    DB_LOCATION,
    OUT_LOCATION,
    RET_LOCATION,
    expr_facts,
    function_index,
    live_after_loops,
    stmt_def_use,
)
from ..ir.preprocess import OUT_VAR
from ..ir import ENode
from ..lang import (
    Assign,
    Block,
    ExprStmt,
    ForEach,
    FunctionDef,
    If,
    Program,
    Return,
    Stmt,
    TryCatch,
    While,
    child_blocks,
    clone_statements,
    number_statements,
)
from .emit import Emitter


# ----------------------------------------------------------------------
# The Section 5.3 heuristic


@dataclass(frozen=True)
class LoopMaps:
    """A function's cursor loops by statement id, and the variables live
    after each of its loops (one liveness pass).  Built once per op and
    handed to every consumer: the extractor's targets and bail-out spans,
    the Section 5.3 rule and the rewrite alternatives."""

    loops: dict[int, ForEach]
    live: dict[int, set[str]]

    @classmethod
    def of(cls, func: FunctionDef) -> LoopMaps:
        loops = {stmt.sid: stmt for stmt in function_index(func).cursor_loops}
        return cls(loops, live_after_loops(func))


@dataclass
class LoopExtractions:
    """One cursor loop's variable extractions under the Section 5.3 rule."""

    loop: ForEach
    #: The loop's ``repro.core.VariableExtraction`` records.
    extractions: list
    #: (variable, F-IR node) for each variable live after the loop that
    #: extracted: what a push-down or partial rewrite inserts.
    pairs: list[tuple[str, ENode]]
    #: Every variable the loop updates that is live after it extracted.
    push_down: bool


def loop_extractions(maps: LoopMaps, extractions) -> dict[int, LoopExtractions]:
    """Group variable extractions by their cursor loop in the function
    ``maps`` describes and apply the paper's Section 5.3 heuristic to each
    loop.  Loops not found in the function are left out; the map follows
    the order loops first appear in."""
    loops, live = maps.loops, maps.live
    by_loop: dict[int, list] = {}
    for extraction in extractions:
        if extraction.loop_sid in loops:
            by_loop.setdefault(extraction.loop_sid, []).append(extraction)
    result = {}
    for sid, group in by_loop.items():
        # The printed-output stream is always observable.
        needed = {e.variable for e in group} & (live[sid] | {OUT_VAR})
        extracted = [
            e for e in group if e.variable in needed and e.ok and e.node is not None
        ]
        result[sid] = LoopExtractions(
            loop=loops[sid],
            extractions=group,
            pairs=[(e.variable, e.node) for e in extracted],
            push_down=bool(needed) and needed <= {e.variable for e in extracted},
        )
    return result


def insert_extractions(
    program: Program,
    function: str,
    extractions: dict[int, list[tuple[str, ENode]]],
    dialect: str = "repro",
) -> Program:
    """Insert ``v = <extracted>`` statements after their source loops.

    ``extractions`` maps a loop statement id to the (variable, expression)
    pairs extracted from that loop.  Returns a rewritten copy with its own
    statements (expressions are shared); ``program`` is left as it was.
    """
    result = clone_statements(program)
    func = result.function(function)
    emitter = Emitter(dialect=dialect)
    _insert_in_block(func.body, extractions, emitter)
    number_statements(result)
    return result


def _insert_in_block(
    block: Block,
    extractions: dict[int, list[tuple[str, ENode]]],
    emitter: Emitter,
) -> None:
    i = 0
    while i < len(block.statements):
        stmt = block.statements[i]
        for child in child_blocks(stmt):
            _insert_in_block(child, extractions, emitter)
        if stmt.sid in extractions:
            inserted: list[Stmt] = []
            for variable, node in extractions[stmt.sid]:
                inserted.extend(emitter.statements_for(variable, node))
            block.statements[i + 1 : i + 1] = inserted
            i += len(inserted)
        i += 1


# ----------------------------------------------------------------------
# Dead code elimination (paper Section 5.2: "parts of the original program
# which are now rendered redundant/unused are removed")


def eliminate_dead_code(program: Program, function: str) -> Program:
    """Remove assignments and loops whose results are never observed.

    Observable sinks: the return value, the output stream (``__out__``),
    and database writes.  Conservative for unknown calls and try/catch: a
    statement stays when evaluating it could be observable
    (:attr:`~repro.analysis.dataflow.ExprFacts.side_effects`: it writes an
    external location, or calls anything but a database read).  Mutating a
    local collection counts only while the collection is live.
    Returns a copy; ``program`` is left as it was.
    """
    result = clone_statements(program)
    func = result.function(function)
    changed = True
    while changed:
        live = {RET_LOCATION, OUT_VAR, OUT_LOCATION, DB_LOCATION}
        changed, _ = _eliminate_block(func.body, live)
    number_statements(result)
    return result


def _eliminate_block(
    block: Block, live: set[str], apply: bool = True
) -> tuple[bool, bool]:
    """Backward pass; updates ``live`` in place and, when ``apply``,
    deletes the dead statements from the block.

    Returns (anything removed, anything kept).
    """
    changed = kept = False
    for index in range(len(block.statements) - 1, -1, -1):
        stmt = block.statements[index]
        keep, removed_inside = _process_stmt(stmt, live, apply)
        changed |= removed_inside
        if keep:
            kept = True
        else:
            if apply:
                del block.statements[index]
            changed = True
    return changed, kept


def _process_stmt(stmt: Stmt, live: set[str], apply: bool) -> tuple[bool, bool]:
    """Returns (keep this statement, anything removed inside it)."""
    if isinstance(stmt, Return):
        live |= stmt_def_use(stmt).reads
        return True, False

    if isinstance(stmt, Assign):
        if stmt.target not in live and not expr_facts(stmt.value).side_effects:
            return False, False
        live.discard(stmt.target)
        live.update(stmt_def_use(stmt).reads)
        return True, False

    if isinstance(stmt, ExprStmt):
        summary = stmt_def_use(stmt)
        writes_live = any(
            w in live or w in (DB_LOCATION, OUT_LOCATION) for w in summary.writes
        )
        if not writes_live and not expr_facts(stmt.expr).side_effects:
            return False, False
        live.update(summary.reads)
        return True, False

    if isinstance(stmt, If):
        then_live = set(live)
        removed, kept = _eliminate_block(stmt.then_body, then_live, apply)
        else_live = set(live)
        if stmt.else_body is not None:
            else_removed, else_kept = _eliminate_block(
                stmt.else_body, else_live, apply
            )
            removed |= else_removed
            kept |= else_kept
        if not kept:
            return False, removed
        live.clear()
        live.update(then_live | else_live | expr_facts(stmt.cond).reads)
        return True, removed

    if isinstance(stmt, (ForEach, While)):
        # Fixpoint over iterations: a variable read by a *surviving* body
        # statement may carry the previous iteration's value, so it must
        # stay live for the body itself.  Trial passes that delete nothing
        # run until the keep-set stabilises, then one pass applies it.
        header = stmt.iterable if isinstance(stmt, ForEach) else stmt.cond
        body_live_out = set(live)
        for _ in range(len(stmt.body.statements) + 2):
            trial_live = set(body_live_out)
            _eliminate_block(stmt.body, trial_live, apply=False)
            trial_live = {v for v in trial_live if not v.startswith("@")}
            if trial_live <= body_live_out:
                break
            body_live_out |= trial_live
        removed, kept = _eliminate_block(stmt.body, body_live_out, apply)
        if not kept and not expr_facts(header).side_effects:
            return False, removed
        # The loop may run zero times, so a body assignment never *kills*
        # liveness for the code above the loop: everything live after the
        # loop stays live before it, in addition to what the body reads.
        live.update(body_live_out)
        if isinstance(stmt, ForEach):
            live.discard(stmt.var)
        live.update(expr_facts(header).reads)
        return True, removed

    if isinstance(stmt, Block):
        removed, kept = _eliminate_block(stmt, live, apply)
        return kept, removed

    if isinstance(stmt, TryCatch):
        # Conservative: keep, but make all reads live.
        from ..analysis import all_reads

        live.update(all_reads(stmt))
        return True, False

    return True, False
