"""Conversion of ee-DAG scalar expressions into relational algebra scalars.

Used when pushing computation from folding functions into queries (rules
T2/T3/T5) and when emitting SQL.  Two failure tiers mirror the paper's
Table 1 taxonomy:

* :class:`CapableButUnimplemented` — the construct is representable in
  F-IR and translatable by the paper's *techniques*, but the reference
  implementation had no SQL emitter for it (the Table 1 "✓" rows).  We
  reproduce the same gaps for fidelity.
* :class:`NotScalarizable` — the construct genuinely has no relational
  counterpart here (tuples, folds, opaque values); the enclosing rule
  simply does not fire.
"""

from __future__ import annotations

from ..algebra import (
    BinOp,
    CaseWhen,
    Col,
    Func,
    Lit,
    Param,
    ScalarExpr,
    UnOp,
)
from ..ir import (
    EAttr,
    EBoundVar,
    EConst,
    EExists,
    ENode,
    EOp,
    EScalarQuery,
    EVar,
)
from ..algebra.expressions import ExistsExpr, ScalarSubquery


class NotScalarizable(Exception):
    """The expression has no scalar relational form."""


class CapableButUnimplemented(Exception):
    """Representable by the paper's techniques; no SQL emitter here.

    Mirrors the "✓" rows of Table 1: the reference implementation declined
    these even though the technique covers them.
    """

    def __init__(self, construct: str):
        self.construct = construct
        super().__init__(f"no SQL emitter for {construct!r} (technique-capable)")


#: ee-DAG operators translatable by the technique but deliberately left
#: without an SQL emitter, reproducing the implementation gaps the paper
#: reports for its Table 1 "✓" entries.
CAPABLE_UNIMPLEMENTED_OPS = {
    "str_contains",
    "starts_with",
    "ends_with",
    "index_of",
    "substring",
    "size",
    "isempty",
    "to_int",
    "to_float",
    "map_put",
    "empty_map",
}

#: Imperative binary operators with an equivalent SQL operator.  ``/`` and
#: ``%`` have none: Java truncates integer division (``3 / 2`` is 1) where
#: SQL divides exactly, so a fold over them stays unextracted.
_BINARY_OPS = {
    "+": "+",
    "-": "-",
    "*": "*",
    "==": "=",
    "!=": "!=",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "and": "AND",
    "or": "OR",
}

_FUNC_OPS = {
    "max": "GREATEST",
    "min": "LEAST",
    "upper": "UPPER",
    "lower": "LOWER",
    "trim": "TRIM",
    "length": "LENGTH",
    "abs": "ABS",
}


def scalarize(
    node: ENode,
    cursor: str,
    column_of: dict[str, str] | None = None,
) -> ScalarExpr:
    """Convert an ee-DAG expression over the cursor tuple into a scalar.

    ``EAttr(EBoundVar(cursor), a)`` becomes ``Col(a)`` (through
    ``column_of`` if given); free program inputs (``EVar``) become
    parameters; constants become literals.
    """
    if isinstance(node, EConst):
        return Lit(node.value)
    if isinstance(node, EVar):
        return Param(node.name)
    if isinstance(node, EAttr):
        if isinstance(node.base, EBoundVar) and node.base.name == cursor:
            name = node.attr
            if column_of is not None:
                name = column_of.get(name, name)
            return Col(name)
        if isinstance(node.base, (EVar, EBoundVar)):
            # Attribute of a non-cursor tuple value (e.g. a scalar row
            # variable): expose as a parameter so the caller may bind it.
            return Param(f"{_base_name(node.base)}__{node.attr}")
        raise NotScalarizable(f"attribute access on {node.base}")
    if isinstance(node, EBoundVar):
        raise NotScalarizable(f"bare bound variable {node.name}")
    if isinstance(node, EScalarQuery):
        if node.params:
            raise NotScalarizable("correlated scalar subquery inside scalar context")
        return ScalarSubquery(node.rel)
    if isinstance(node, EExists):
        if node.params:
            raise NotScalarizable("correlated EXISTS inside scalar context")
        return ExistsExpr(node.rel, node.negated)
    if isinstance(node, EOp):
        return _scalarize_op(node, cursor, column_of)
    raise NotScalarizable(f"cannot scalarize {type(node).__name__}")


def _base_name(node: ENode) -> str:
    if isinstance(node, EVar):
        return node.name
    if isinstance(node, EBoundVar):
        return node.name
    raise NotScalarizable("complex attribute base")


#: ``combine_<op>(init, aggregate)`` merges a fold's initial value with a
#: scalar aggregate whose value is NULL on empty input — the NULL collapses
#: back to the initial value, matching imperative semantics on empty results.
_COMBINE_OPS = {
    "combine_max": lambda a, b: Func("GREATEST", (a, Func("COALESCE", (b, a)))),
    "combine_min": lambda a, b: Func("LEAST", (a, Func("COALESCE", (b, a)))),
    "combine_sum": lambda a, b: BinOp("+", a, Func("COALESCE", (b, Lit(0)))),
    "combine_count": lambda a, b: BinOp("+", a, Func("COALESCE", (b, Lit(0)))),
    "combine_or": lambda a, b: BinOp("OR", a, Func("COALESCE", (b, Lit(False)))),
    "combine_and": lambda a, b: BinOp("AND", a, Func("COALESCE", (b, Lit(True)))),
}


def _scalarize_op(
    node: EOp, cursor: str, column_of: dict[str, str] | None
) -> ScalarExpr:
    op = node.op
    if op == "opaque":
        raise NotScalarizable("opaque value")
    if op in CAPABLE_UNIMPLEMENTED_OPS:
        raise CapableButUnimplemented(op)
    if op == "+" and _is_string_concat(node):
        # Java's `+` coerces to string when any operand is a string; the
        # SQL form is CONCAT over the flattened chain.
        parts = [
            scalarize(p, cursor, column_of) for p in _flatten_plus(node)
        ]
        return Func("CONCAT", tuple(parts))
    children = [scalarize(c, cursor, column_of) for c in node.operands]
    if op in ("==", "!=") and len(children) == 2:
        # Java null comparisons are two-valued; SQL needs IS [NOT] NULL.
        null_side = None
        other = None
        if children[0] == Lit(None):
            null_side, other = children[0], children[1]
        elif children[1] == Lit(None):
            null_side, other = children[1], children[0]
        if null_side is not None:
            test: ScalarExpr = Func("ISNULL", (other,))
            if op == "!=":
                test = UnOp("NOT", test)
            return test
    if op in _BINARY_OPS and len(children) == 2:
        return BinOp(_BINARY_OPS[op], children[0], children[1])
    if op in _FUNC_OPS:
        return Func(_FUNC_OPS[op], tuple(children))
    if op in _COMBINE_OPS:
        return _COMBINE_OPS[op](children[0], children[1])
    if op == "coalesce":
        return Func("COALESCE", tuple(children))
    if op == "not_null":
        return UnOp("NOT", Func("ISNULL", (children[0],)))
    if op == "not":
        return UnOp("NOT", children[0])
    if op == "neg":
        return UnOp("-", children[0])
    if op == "?":
        return CaseWhen(children[0], children[1], children[2])
    if op in ("empty_list", "empty_set", "append", "insert", "tuple", "concat_list"):
        raise NotScalarizable(f"collection operator {op!r}")
    raise NotScalarizable(f"operator {op!r}")


def _is_string_concat(node: ENode) -> bool:
    """A `+` chain is string concatenation when any leaf is a string."""
    for part in _flatten_plus(node):
        if isinstance(part, EConst) and isinstance(part.value, str):
            return True
        if isinstance(part, EOp) and part.op in ("upper", "lower", "trim"):
            return True
    return False


def _flatten_plus(node: ENode) -> list[ENode]:
    if isinstance(node, EOp) and node.op == "+" and len(node.operands) == 2:
        return _flatten_plus(node.operands[0]) + _flatten_plus(node.operands[1])
    return [node]


def references_cursor(node: ENode, cursor: str) -> bool:
    """True when the expression reads the cursor tuple."""
    from ..ir import walk_enodes

    for n in walk_enodes(node):
        if isinstance(n, EBoundVar) and n.name == cursor:
            return True
    return False


def references_bound(node: ENode, name: str) -> bool:
    """True when the expression references ``EBoundVar(name)``."""
    from ..ir import walk_enodes

    for n in walk_enodes(node):
        if isinstance(n, EBoundVar) and n.name == name:
            return True
    return False
