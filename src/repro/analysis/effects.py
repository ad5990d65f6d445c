"""Transitive side-effect summaries of user functions.

The D-IR builder inlines calls to user functions; calls it cannot resolve
(undefined names, recursion) are assumed pure in statement position.  The
lint passes (:mod:`repro.lint`) need to know, for a call inside a cursor
loop, whether the callee — directly or through further calls — writes the
database, produces output, mutates a parameter, or bottoms out in something
unknown.  This module computes those summaries once per program with a
fixpoint over the call graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..interp.values import setter_to_column
from ..lang import (
    Assign,
    Call,
    FieldAccess,
    ForEach,
    FunctionDef,
    MethodCall,
    Name,
    New,
    Program,
    Return,
    Ternary,
)
from .dataflow import (
    DB_READ_CALLS,
    DB_WRITE_CALLS,
    OUTPUT_CALLS,
    STATIC_RECEIVERS,
    _MUTATING_METHODS,
)
from .index import FunctionIndex, function_index

#: Free-call names with modelled semantics (not user functions).
BUILTIN_CALLS = DB_READ_CALLS | DB_WRITE_CALLS | OUTPUT_CALLS


@dataclass(frozen=True)
class EffectSummary:
    """What calling a user function may do, transitively."""

    db_read: bool = False
    db_write: bool = False
    output: bool = False
    calls_unknown: bool = False  # reaches a call with no definition
    recursive: bool = False  # participates in a call-graph cycle
    mutates_params: frozenset[int] = frozenset()  # parameter positions
    #: Parameter positions whose object may outlive or leave the call:
    #: returned, stored into another object, or passed to a call with no
    #: definition.  Alias-closed within each function and propagated
    #: through the same fixpoint as ``mutates_params``, so it is a sound
    #: over-approximation even for recursive callees — which is what lets
    #: the points-to client trust ``escapes_params`` on ``opaque``
    #: summaries (anything reaching the unknown region is in the set).
    escapes_params: frozenset[int] = frozenset()

    @property
    def opaque(self) -> bool:
        """True when the builder cannot faithfully model a statement-position
        call to this function (it would silently assume purity)."""
        return self.calls_unknown or self.recursive


@dataclass
class _Facts:
    db_read: bool = False
    db_write: bool = False
    output: bool = False
    calls_unknown: bool = False
    mutates_params: set[int] = field(default_factory=set)
    escapes_params: set[int] = field(default_factory=set)
    #: (callee name, arg-position → caller-param-position, arg-position →
    #: caller-param-positions *aliased* by the argument) for user calls.  The
    #: second map is a superset of the first, used only for escape
    #: propagation so mutation propagation keeps its historical precision.
    calls: list[tuple[str, dict[int, int], dict[int, frozenset[int]]]] = field(
        default_factory=list
    )


def function_effects(program: Program) -> dict[str, EffectSummary]:
    """Compute an :class:`EffectSummary` for every function in ``program``."""
    defined = {func.name for func in program.functions}
    facts = {func.name: _direct_facts(func, defined) for func in program.functions}
    recursive = _functions_on_cycles(facts)

    def state(fact: _Facts) -> tuple:
        return (
            fact.db_read, fact.db_write, fact.output, fact.calls_unknown,
            frozenset(fact.mutates_params), frozenset(fact.escapes_params),
        )

    # Fixpoint propagation over the call graph.
    changed = True
    while changed:
        changed = False
        for fact in facts.values():
            before = state(fact)
            for callee, arg_map, alias_map in fact.calls:
                other = facts[callee]
                fact.db_read |= other.db_read
                fact.db_write |= other.db_write
                fact.output |= other.output
                fact.calls_unknown |= other.calls_unknown
                fact.mutates_params.update(
                    arg_map[pos] for pos in other.mutates_params if pos in arg_map
                )
                for pos in other.escapes_params:
                    fact.escapes_params |= alias_map.get(pos, frozenset())
            changed |= state(fact) != before

    return {
        name: EffectSummary(
            db_read=fact.db_read,
            db_write=fact.db_write,
            output=fact.output,
            calls_unknown=fact.calls_unknown,
            recursive=name in recursive,
            mutates_params=frozenset(fact.mutates_params),
            escapes_params=frozenset(fact.escapes_params),
        )
        for name, fact in facts.items()
    }


def _param_aliases(index: FunctionIndex) -> dict[str, frozenset[int]]:
    """Flow-insensitive closure: variable → parameter positions it may alias.

    Deliberately coarse — any assignment whose right-hand side *reads* a
    param-aliasing variable taints the target, and a ``ForEach`` cursor
    inherits its iterable's aliases (elements live inside the container).
    Over-approximation only costs precision in ``escapes_params``, never
    soundness.
    """
    alias: dict[str, set[int]] = {
        name: {i} for i, name in enumerate(index.func.params)
    }
    flows = []
    for info in index.entries:
        stmt = info.stmt
        if isinstance(stmt, Assign):
            flows.append((stmt.target, info.facts.names))
        elif isinstance(stmt, ForEach):
            flows.append((stmt.var, info.facts.names))
    changed = True
    while changed:
        changed = False
        for target, names in flows:
            sources: set[int] = set()
            for name in names:
                if name in alias:
                    sources |= alias[name]
            if sources:
                current = alias.setdefault(target, set())
                if not sources <= current:
                    current |= sources
                    changed = True
    return {name: frozenset(positions) for name, positions in alias.items()}


def _expr_param_aliases(expr, alias: dict[str, frozenset[int]]) -> frozenset[int]:
    """Parameter positions whose *object* the value of ``expr`` may alias.

    Unlike a raw name walk this skips sub-expressions that cannot carry the
    alias out in the produced value: a ``Call``'s result is governed by the
    callee's own escape summary (the caller records the argument pass
    separately), and arithmetic produces fresh scalars.  Method calls and
    constructors conservatively taint with their receiver/arguments —
    ``c.get(0)`` may hand out an element of ``c``, ``new Pair(a, b)``
    retains both arguments.
    """
    if isinstance(expr, Name):
        return alias.get(expr.ident, frozenset())
    if isinstance(expr, Ternary):
        return _expr_param_aliases(expr.if_true, alias) | _expr_param_aliases(
            expr.if_false, alias
        )
    if isinstance(expr, MethodCall):
        positions = _expr_param_aliases(expr.receiver, alias)
        for arg in expr.args:
            positions |= _expr_param_aliases(arg, alias)
        return positions
    if isinstance(expr, New):
        positions: frozenset[int] = frozenset()
        for arg in expr.args:
            positions |= _expr_param_aliases(arg, alias)
        return positions
    if isinstance(expr, FieldAccess):
        return _expr_param_aliases(expr.receiver, alias)
    return frozenset()


def _direct_facts(func: FunctionDef, defined: set[str]) -> _Facts:
    fact = _Facts()
    params = {name: i for i, name in enumerate(func.params)}
    index = function_index(func)
    alias = _param_aliases(index)
    for info in index.entries:
        stmt = info.stmt
        if isinstance(stmt, Return) and stmt.value is not None:
            fact.escapes_params |= _expr_param_aliases(stmt.value, alias)
        for node in info.facts.calls:
            if isinstance(node, Call):
                if node.func in DB_WRITE_CALLS:
                    fact.db_write = True
                elif node.func in DB_READ_CALLS:
                    fact.db_read = True
                elif node.func in OUTPUT_CALLS:
                    fact.output = True
                elif node.func in defined:
                    arg_map = {
                        i: params[arg.ident]
                        for i, arg in enumerate(node.args)
                        if isinstance(arg, Name) and arg.ident in params
                    }
                    aliased = {
                        i: _expr_param_aliases(arg, alias)
                        for i, arg in enumerate(node.args)
                    }
                    fact.calls.append((node.func, arg_map, aliased))
                else:
                    fact.calls_unknown = True
                    for arg in node.args:
                        fact.escapes_params |= _expr_param_aliases(arg, alias)
            elif isinstance(node, MethodCall):
                if (
                    node.method in ("println", "print")
                    and isinstance(node.receiver, FieldAccess)
                    and isinstance(node.receiver.receiver, Name)
                    and node.receiver.receiver.ident == "System"
                ):
                    fact.output = True
                    continue
                mutating = (
                    node.method in _MUTATING_METHODS
                    or setter_to_column(node.method) is not None
                )
                if (
                    mutating
                    and isinstance(node.receiver, Name)
                    and node.receiver.ident not in STATIC_RECEIVERS
                ):
                    if node.receiver.ident in params:
                        fact.mutates_params.add(params[node.receiver.ident])
                    # Storing a param-aliasing value into another object
                    # lets it outlive this frame's view of it.
                    for arg in node.args:
                        fact.escapes_params |= _expr_param_aliases(arg, alias)
    return fact


def _functions_on_cycles(facts: dict[str, _Facts]) -> set[str]:
    """Names of functions that can (transitively) call themselves."""
    # Transitive closure of reachability; a function is recursive when it
    # reaches itself.  Program call graphs here are tiny, so O(n·e) is fine.
    reach = {name: {callee for callee, _, _ in f.calls} for name, f in facts.items()}
    changed = True
    while changed:
        changed = False
        for out in reach.values():
            extra = set().union(*(reach.get(callee, ()) for callee in out)) - out
            out |= extra
            changed |= bool(extra)
    return {name for name, out in reach.items() if name in out}
