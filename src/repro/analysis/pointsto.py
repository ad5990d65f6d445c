"""Flow-sensitive intraprocedural points-to / escape analysis.

The lint layer's alias-escape pass (EQ103) is syntactic: a result set
passed anywhere the analysis cannot see is assumed aliased and mutated.
This module replaces that over-approximation with proven facts:

* every allocation site (``new``), query call, and cursor row gets an
  **abstract object**; a forward dataflow over the CFG tracks, per
  statement, which objects each variable may denote (union merge at
  joins — a *may* analysis);
* an object **escapes** when it is returned, stored into an object that
  escapes, appended to the observable output buffer, or passed to a call
  the analysis cannot prove keeps it local.  For calls to functions
  defined in the same program, the interprocedural
  :attr:`~repro.analysis.effects.EffectSummary.escapes_params` summary
  (computed on the :func:`~repro.analysis.effects.function_effects`
  fixpoint) decides per argument position;
* containment edges (``list.add(x)`` makes ``list`` contain ``x``) are
  accumulated so escape is closed transitively at the end: everything
  inside an escaped container escapes.

The soundness direction is one-way by construction: unknown callees,
unknown receivers, and parameters all degrade to "may escape", so a
``True`` from :meth:`PointsToResult.is_function_local` is a proof, while a
``False`` is merely lack of one.  The lint engine only ever *downgrades*
a blocker on a proof, never upgrades on its absence — the differential
fuzzer's ``lint-unsound`` verdict is the net under that contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..interp.values import getter_to_column, setter_to_column
from ..lang import (
    Assign,
    Call,
    Expr,
    ForEach,
    FunctionDef,
    MethodCall,
    Name,
    New,
    Return,
    Stmt,
    Ternary,
    statement_expressions,
)
from .cfg import build_cfg
from .dataflow import DB_READ_CALLS, STATIC_RECEIVERS, expr_facts
from .dominators import reverse_postorder
from .effects import BUILTIN_CALLS, EffectSummary

#: Variable the preprocessor collects observable output into; anything
#: stored there is part of the function's result and therefore escaped.
_OUT_VAR = "__out__"

#: Methods returning scalars (never aliases of their receiver's contents).
_SCALAR_METHODS = {"size", "length", "isEmpty", "contains", "next", "hasNext"}

#: Methods that store an argument into their receiver.
_STORING_METHODS = {"add", "append", "insert", "addAll", "put"}


@dataclass(frozen=True, order=True)
class AbstractObject:
    """One allocation/query/row/param site, or the unknown object."""

    kind: str  # "alloc" | "query" | "row" | "param" | "unknown"
    label: str
    sid: int = -1
    param: int = -1

    def describe(self) -> str:
        return self.label


UNKNOWN_OBJECT = AbstractObject(kind="unknown", label="?")

_EMPTY: frozenset[AbstractObject] = frozenset()
_UNKNOWN: frozenset[AbstractObject] = frozenset({UNKNOWN_OBJECT})


@dataclass
class PointsToResult:
    """Per-statement points-to states plus the escaped-object closure."""

    function: str
    #: statement sid → variable → abstract objects, on entry.
    at: dict[int, dict[str, frozenset[AbstractObject]]] = field(
        default_factory=dict
    )
    escaped: frozenset[AbstractObject] = _EMPTY
    contains: dict[AbstractObject, frozenset[AbstractObject]] = field(
        default_factory=dict
    )

    def objects_at(self, sid: int, var: str) -> frozenset[AbstractObject]:
        return self.at.get(sid, {}).get(var, _EMPTY)

    def is_function_local(self, sid: int, var: str) -> bool:
        """True when every object ``var`` may denote at ``sid`` is an
        allocation/query/row created in this function and proven never to
        escape it.  This is the proof obligation for downgrading an
        alias-escape blocker: no caller, callee, or output consumer can
        observe a mutation of a function-local object."""
        objects = self.objects_at(sid, var)
        if not objects:
            return False
        return all(
            obj.kind in ("alloc", "query", "row") and obj not in self.escaped
            for obj in objects
        )

    def may_alias(self, sid: int, var: str, other_objects) -> bool:
        """May ``var`` at ``sid`` denote any of ``other_objects``?

        The unknown object aliases everything — lack of information must
        read as "yes, possibly"."""
        objects = self.objects_at(sid, var)
        if UNKNOWN_OBJECT in objects or UNKNOWN_OBJECT in other_objects:
            return True
        return bool(objects & frozenset(other_objects))


def analyze_pointsto(
    func: FunctionDef,
    effects: dict[str, EffectSummary] | None = None,
) -> PointsToResult:
    """Run the analysis on one (statement-numbered) function.

    ``effects`` supplies interprocedural summaries for same-program
    callees; without it every non-builtin call is treated as unknown.
    """
    cfg = build_cfg(func)
    order = reverse_postorder(cfg)
    summaries = effects or {}

    # Monotone accumulators shared across iterations.
    escaped: set[AbstractObject] = set()
    contains: dict[AbstractObject, set[AbstractObject]] = {}

    def contents_of(obj: AbstractObject) -> frozenset[AbstractObject]:
        if obj.kind == "query":
            return frozenset(
                {AbstractObject(kind="row", label=f"row({obj.label})", sid=obj.sid)}
            )
        if obj.kind in ("alloc", "row"):
            return frozenset(contains.get(obj, ()))
        return _UNKNOWN  # params / unknown: contents unknowable

    def objs_of(
        expr: Expr, env: dict[str, frozenset[AbstractObject]], sid: int
    ) -> frozenset[AbstractObject]:
        if isinstance(expr, Name):
            if expr.ident in STATIC_RECEIVERS:
                return _EMPTY
            return env.get(expr.ident, _EMPTY)
        if isinstance(expr, New):
            return frozenset(
                {
                    AbstractObject(
                        kind="alloc",
                        label=f"new {expr.class_name}@s{sid}",
                        sid=sid,
                    )
                }
            )
        if isinstance(expr, Call):
            if expr.func in DB_READ_CALLS:
                return frozenset(
                    {AbstractObject(kind="query", label=f"query@s{sid}", sid=sid)}
                )
            if expr.func in BUILTIN_CALLS:
                return _EMPTY
            return _UNKNOWN  # user-function return values are not tracked
        if isinstance(expr, MethodCall):
            if (
                expr.method in _SCALAR_METHODS
                or getter_to_column(expr.method) is not None
            ):
                return _EMPTY
            if (
                isinstance(expr.receiver, Name)
                and expr.receiver.ident in STATIC_RECEIVERS
            ):
                return _EMPTY
            if expr.method == "get":
                merged: set[AbstractObject] = set()
                for obj in objs_of(expr.receiver, env, sid):
                    merged |= contents_of(obj)
                return frozenset(merged)
            return _UNKNOWN
        if isinstance(expr, Ternary):
            return objs_of(expr.if_true, env, sid) | objs_of(
                expr.if_false, env, sid
            )
        return _EMPTY  # literals, arithmetic, field reads

    def record_events(
        stmt: Stmt, env: dict[str, frozenset[AbstractObject]]
    ) -> bool:
        """Escape / containment events of one statement.  Returns True when
        an accumulator grew (forces another fixpoint round)."""
        grew = False

        def mark_escaped(objects: frozenset[AbstractObject]) -> None:
            nonlocal grew
            for obj in objects:
                if obj is not UNKNOWN_OBJECT and obj not in escaped:
                    escaped.add(obj)
                    grew = True

        def mark_contains(
            holders: frozenset[AbstractObject],
            values: frozenset[AbstractObject],
        ) -> None:
            nonlocal grew
            for holder in holders:
                if holder is UNKNOWN_OBJECT:
                    mark_escaped(values)
                    continue
                bucket = contains.setdefault(holder, set())
                fresh = {v for v in values if v not in bucket}
                if fresh:
                    bucket |= fresh
                    grew = True

        if isinstance(stmt, Return) and stmt.value is not None:
            mark_escaped(objs_of(stmt.value, env, stmt.sid))

        for expr in statement_expressions(stmt):
            for node in expr_facts(expr).calls:
                if isinstance(node, Call) and node.func not in BUILTIN_CALLS:
                    summary = summaries.get(node.func)
                    for pos, arg in enumerate(node.args):
                        arg_objs = objs_of(arg, env, stmt.sid)
                        if summary is None:
                            mark_escaped(arg_objs)
                        elif pos in summary.escapes_params:
                            mark_escaped(arg_objs)
                elif isinstance(node, MethodCall):
                    if (
                        isinstance(node.receiver, Name)
                        and node.receiver.ident in STATIC_RECEIVERS
                    ):
                        continue
                    stores = (
                        node.method in _STORING_METHODS
                        or setter_to_column(node.method) is not None
                    )
                    if not stores:
                        continue
                    holder_objs = objs_of(node.receiver, env, stmt.sid)
                    value_objs: set[AbstractObject] = set()
                    for arg in node.args:
                        value_objs |= objs_of(arg, env, stmt.sid)
                    if (
                        isinstance(node.receiver, Name)
                        and node.receiver.ident == _OUT_VAR
                    ):
                        mark_escaped(frozenset(value_objs))
                    mark_contains(holder_objs, frozenset(value_objs))
        return grew

    def transfer(
        stmt: Stmt, env: dict[str, frozenset[AbstractObject]]
    ) -> dict[str, frozenset[AbstractObject]]:
        out = dict(env)
        if isinstance(stmt, Assign):
            out[stmt.target] = objs_of(stmt.value, env, stmt.sid)
        elif isinstance(stmt, ForEach):
            element: set[AbstractObject] = set()
            for obj in objs_of(stmt.iterable, env, stmt.sid):
                element |= contents_of(obj)
            if isinstance(stmt.iterable, Name) and not env.get(
                stmt.iterable.ident
            ):
                element.add(UNKNOWN_OBJECT)
            out[stmt.var] = frozenset(element)
        else:
            # Opaque calls may rebind nothing (reference semantics: callees
            # can mutate contents but not our local bindings), so bindings
            # survive; escape events above capture the rest.
            pass
        return out

    entry_env = {
        param: frozenset(
            {AbstractObject(kind="param", label=f"param {param}", param=i)}
        )
        for i, param in enumerate(func.params)
    }

    block_in: dict[int, dict[str, frozenset[AbstractObject]]] = {
        cfg.entry: entry_env
    }

    def merge(a, b):
        out = dict(a)
        for var, objs in b.items():
            out[var] = out.get(var, _EMPTY) | objs
        return out

    for _round in range(64):  # escape accumulators force extra rounds
        changed = False
        for index in order:
            env = dict(block_in.get(index, {}))
            if index == cfg.entry:
                env = merge(env, entry_env)
            for stmt in cfg.blocks[index].statements:
                changed |= record_events(stmt, env)
                env = transfer(stmt, env)
            for succ in cfg.blocks[index].successors:
                merged = merge(block_in.get(succ, {}), env)
                if merged != block_in.get(succ):
                    block_in[succ] = merged
                    changed = True
        if not changed:
            break

    # Close escape over containment: contents of escaped containers escape.
    worklist = list(escaped)
    while worklist:
        obj = worklist.pop()
        for inner in contains.get(obj, ()):  # pragma: no branch
            if inner not in escaped:
                escaped.add(inner)
                worklist.append(inner)

    # Record per-statement entry states from the stabilised block inputs.
    result = PointsToResult(function=func.name)
    for index in order:
        env = dict(block_in.get(index, {}))
        if index == cfg.entry:
            env = merge(env, entry_env)
        for stmt in cfg.blocks[index].statements:
            result.at[stmt.sid] = dict(env)
            env = transfer(stmt, env)
    result.escaped = frozenset(escaped)
    result.contains = {
        holder: frozenset(values) for holder, values in contains.items()
    }
    return result
