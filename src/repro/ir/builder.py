"""D-IR construction (paper Sections 3.2–3.3 and Appendix D).

For every region the builder produces a ve-Map: variable → equivalent
ee-DAG expression in terms of values at the start of the region (region
inputs, ``EVar``).  Construction is bottom-up:

* simple statement → a one-entry ve-Map (Appendix D.1)
* basic block → left-fold of sequential merges (D.2/D.3)
* conditional region → ``?`` nodes per modified variable (D.4)
* loop region → ``Loop`` nodes per updated variable (D.5)
* user functions/procedures → built separately and merged at the call
  site with actual-to-formal mapping (D.6)

Unsupported constructs make the affected variable's expression OPAQUE,
which later fails the F-IR preconditions for exactly that variable while
leaving other variables analysable (the paper's partial extraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import Lit, bind_rel_params, query_params
from ..analysis import (
    DB_LOCATION,
    BasicBlockRegion,
    ConditionalRegion,
    EmptyRegion,
    FunctionIndex,
    LoopRegion,
    OpaqueRegion,
    Region,
    SequentialRegion,
    build_region,
    function_index,
)
from ..analysis.dataflow import STATIC_RECEIVERS
from ..interp.values import getter_to_column, setter_to_column
from ..lang import (
    Assign,
    Binary,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    FloatLit,
    ForEach,
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
    Unary,
)
from ..sqlparse import SqlParseError, parse_query
from .nodes import (
    DagBuilder,
    EConst,
    ENode,
    EOp,
    EQuery,
    OPAQUE,
)
from .subst import bind_vars, substitute

RET_VAR = "@ret"

_BINOP_MAP = {
    "&&": "and",
    "||": "or",
    "==": "==",
    "!=": "!=",
    "<": "<",
    ">": ">",
    "<=": "<=",
    ">=": ">=",
    "+": "+",
    "-": "-",
    "*": "*",
    "/": "/",
    "%": "%",
}

#: String/collection methods with an ee-DAG operator (paper Section 3.2.1:
#: "equivalent ee-DAG operators were created for ... string operations ...
#: important library functions").
_METHOD_OPS = {
    "toUpperCase": "upper",
    "toLowerCase": "lower",
    "trim": "trim",
    "length": "length",
    "size": "size",
    "isEmpty": "isempty",
    "contains": "str_contains",
    "startsWith": "starts_with",
    "endsWith": "ends_with",
    "indexOf": "index_of",
    "substring": "substring",
    "concat": "+",
    "intValue": "identity",
    "doubleValue": "identity",
    "longValue": "identity",
}

_MUTATORS_APPEND = {"add", "append", "addAll"}


@dataclass
class DIRContext:
    """Shared state for one D-IR construction pass."""

    program: Program
    dag: DagBuilder = field(default_factory=DagBuilder)
    max_inline_depth: int = 8
    #: Collection-kind hints (var name → "set" | "list" | "map"), gathered
    #: from `new HashSet()` etc. assignments anywhere in the function; used
    #: to pick append vs insert when the allocation is outside the region.
    var_kinds: dict[str, str] = field(default_factory=dict)
    _inline_stack: list[str] = field(default_factory=list)
    _function_cache: dict[str, dict[str, ENode]] = field(default_factory=dict)


class DIRBuilder:
    """Builds ve-Maps for regions of a preprocessed program."""

    def __init__(self, context: DIRContext):
        self.ctx = context
        self.dag = context.dag
        #: Statement index of the function being built (a callee's while
        #: it is inlined).
        self._index: FunctionIndex | None = None

    # ------------------------------------------------------------------
    # Entry points

    def build_function(self, name: str) -> dict[str, ENode]:
        """Return the function-level ve-Map (variables + ``@ret``)."""
        cached = self.ctx._function_cache.get(name)
        if cached is not None:
            return cached
        func = self.ctx.program.function(name)
        outer, self._index = self._index, function_index(func)
        ve = self.build_region(build_region(func.body))
        self._index = outer
        self.ctx._function_cache[name] = ve
        return ve

    # ------------------------------------------------------------------
    # Regions (Appendix D)

    def build_region(self, region: Region) -> dict[str, ENode]:
        if isinstance(region, EmptyRegion):
            return {}
        if isinstance(region, BasicBlockRegion):
            return self._build_basic_block(region)
        if isinstance(region, SequentialRegion):
            first = self.build_region(region.first)
            second = self.build_region(region.second)
            return self.merge_sequential(first, second)
        if isinstance(region, ConditionalRegion):
            return self._build_conditional(region)
        if isinstance(region, LoopRegion):
            return self._build_loop(region)
        if isinstance(region, OpaqueRegion):
            return self._opaque_writes(region.stmt)
        raise TypeError(f"cannot build D-IR for {type(region).__name__}")

    def merge_sequential(
        self, first: dict[str, ENode], second: dict[str, ENode]
    ) -> dict[str, ENode]:
        """Appendix D.3: resolve the second region's inputs from the first."""
        merged = dict(first)
        for name, node in second.items():
            merged[name] = substitute(node, first, self.dag)
        return merged

    def _build_basic_block(self, region: BasicBlockRegion) -> dict[str, ENode]:
        ve: dict[str, ENode] = {}
        for stmt in region.stmts:
            self._apply_statement(stmt, ve)
        return ve

    def _build_conditional(self, region: ConditionalRegion) -> dict[str, ENode]:
        cond = self._convert(region.cond, {})
        true_ve = self.build_region(region.true_region)
        false_ve = (
            self.build_region(region.false_region)
            if region.false_region is not None
            else {}
        )
        ve: dict[str, ENode] = {}
        for name in sorted(set(true_ve) | set(false_ve)):
            if_true = true_ve.get(name, self.dag.var(name))
            if_false = false_ve.get(name, self.dag.var(name))
            ve[name] = self.dag.op("?", cond, if_true, if_false)
        return ve

    def _build_loop(self, region: LoopRegion) -> dict[str, ENode]:
        if not region.is_cursor_loop:
            # General while loops have no algebraic representation.
            return self._opaque_writes(region.stmt)
        assert region.stmt is not None and isinstance(region.stmt, ForEach)
        cursor = region.cursor_var
        assert cursor is not None and region.iterable is not None
        info = self._index.info(region.stmt)
        if info.exits:
            # `break`/`continue`/`try` inside the body changes which rows
            # contribute; the whole loop is unanalysable (paper Section 2:
            # "we assume that loops do not contain unconditional exit
            # statements").  Boolean early exits were already removed by
            # preprocessing.
            return self._opaque_writes(region.stmt)
        source = self._convert(region.iterable, {})
        body_ve = self.build_region(region.body)

        updated = tuple(sorted(name for name in body_ve if name != cursor))
        if DB_LOCATION in info.writes and DB_LOCATION not in updated:
            updated = tuple(sorted(updated + (DB_LOCATION,)))

        bound_names = set(updated) | {cursor}
        ve: dict[str, ENode] = {}
        for name in updated:
            if name == DB_LOCATION:
                ve[name] = OPAQUE
                continue
            body_expr = bind_vars(body_ve[name], bound_names, self.dag)
            ve[name] = self.dag.loop(
                source=source,
                body=body_expr,
                init=self.dag.var(name),
                var=name,
                cursor=cursor,
                updated=updated,
                loop_sid=region.stmt.sid,
                span=(region.stmt.line, region.stmt.col),
            )
        return ve

    def _opaque_writes(self, stmt: Stmt | None) -> dict[str, ENode]:
        if stmt is None:
            return {}
        return {
            name: OPAQUE
            for name in self._index.info(stmt).writes
            if name == DB_LOCATION or not name.startswith("@")
        }

    # ------------------------------------------------------------------
    # Statements (Appendix D.1)

    def _apply_statement(self, stmt: Stmt, ve: dict[str, ENode]) -> None:
        if isinstance(stmt, Assign):
            if isinstance(stmt.value, New):
                kind = _collection_kind(stmt.value.class_name)
                if kind is not None:
                    self.ctx.var_kinds[stmt.target] = kind
            ve[stmt.target] = self._convert(stmt.value, ve)
            return
        if isinstance(stmt, Return):
            value = (
                self._convert(stmt.value, ve)
                if stmt.value is not None
                else self.dag.const(None)
            )
            ve[RET_VAR] = value
            return
        if isinstance(stmt, ExprStmt):
            self._apply_expr_statement(stmt.expr, ve)
            return
        raise TypeError(f"unexpected simple statement {type(stmt).__name__}")

    def _apply_expr_statement(self, expr: Expr, ve: dict[str, ENode]) -> None:
        if isinstance(expr, MethodCall) and isinstance(expr.receiver, Name):
            receiver = expr.receiver.ident
            if receiver in STATIC_RECEIVERS:
                return  # e.g. a bare Math.max(...) — no effect
            current = ve.get(receiver, self.dag.var(receiver))
            if expr.method in _MUTATORS_APPEND:
                is_set = (
                    self._is_set_valued(current)
                    or self.ctx.var_kinds.get(receiver) == "set"
                )
                op = "insert" if is_set else "append"
                args = [self._convert(a, ve) for a in expr.args]
                ve[receiver] = self.dag.op(op, current, *args)
                return
            if expr.method == "put":
                ve[receiver] = self.dag.op(
                    "map_put",
                    current,
                    self._convert(expr.args[0], ve),
                    self._convert(expr.args[1], ve),
                )
                return
            if expr.method in ("remove", "clear", "sort"):
                ve[receiver] = OPAQUE
                return
            if setter_to_column(expr.method):
                ve[receiver] = OPAQUE  # entity mutation is not modelled
                return
            return  # pure method call, result unused
        if isinstance(expr, Call):
            if expr.func in ("executeUpdate", "executeInsert", "executeDelete"):
                ve[DB_LOCATION] = OPAQUE
                return
            if expr.func in ("executeQuery", "executeQueryCursor"):
                return  # result discarded; a pure read
            self._inline_procedure_call(expr, ve)
            return
        # Any other expression statement is effect-free for our model.

    def _is_set_valued(self, node: ENode) -> bool:
        if isinstance(node, EOp):
            if node.op in ("empty_set", "insert"):
                return True
            if node.op == "?":
                return any(self._is_set_valued(c) for c in node.operands[1:])
        return False

    # ------------------------------------------------------------------
    # Function inlining (Appendix D.6)

    def _inline_procedure_call(self, expr: Call, ve: dict[str, ENode]) -> None:
        """Inline a user procedure call for its effects on globals."""
        callee_ve = self._callee_ve(expr.func)
        if callee_ve is None:
            return
        mapping = self._formal_mapping(expr, ve)
        if mapping is None:
            # Unresolvable call: conservatively poison the output stream.
            from .preprocess import OUT_VAR

            ve[OUT_VAR] = OPAQUE
            return
        from .preprocess import OUT_VAR

        for global_name in (OUT_VAR, DB_LOCATION):
            if global_name in callee_ve:
                node = substitute(callee_ve[global_name], mapping, self.dag)
                ve[global_name] = node

    def _inline_function_value(self, expr: Call, ve: dict[str, ENode]) -> ENode:
        """Inline a user function call in value position; OPAQUE on failure."""
        callee_ve = self._callee_ve(expr.func)
        if callee_ve is None or RET_VAR not in callee_ve:
            return OPAQUE
        mapping = self._formal_mapping(expr, ve)
        if mapping is None:
            return OPAQUE
        # Side effects on globals first.
        from .preprocess import OUT_VAR

        for global_name in (OUT_VAR, DB_LOCATION):
            if global_name in callee_ve:
                ve[global_name] = substitute(callee_ve[global_name], mapping, self.dag)
        return substitute(callee_ve[RET_VAR], mapping, self.dag)

    def _callee_ve(self, name: str) -> dict[str, ENode] | None:
        try:
            self.ctx.program.function(name)
        except KeyError:
            return None
        if name in self.ctx._inline_stack:
            return None  # recursion: give up
        if len(self.ctx._inline_stack) >= self.ctx.max_inline_depth:
            return None
        self.ctx._inline_stack.append(name)
        try:
            return self.build_function(name)
        finally:
            self.ctx._inline_stack.pop()

    def _formal_mapping(
        self, expr: Call, ve: dict[str, ENode]
    ) -> dict[str, ENode] | None:
        func = self.ctx.program.function(expr.func)
        if len(func.params) != len(expr.args):
            return None
        mapping = {
            formal: self._convert(arg, ve)
            for formal, arg in zip(func.params, expr.args)
        }
        from .preprocess import OUT_VAR

        mapping[OUT_VAR] = ve.get(OUT_VAR, self.dag.var(OUT_VAR))
        return mapping

    # ------------------------------------------------------------------
    # Expression conversion

    def _convert(self, expr: Expr, ve: dict[str, ENode]) -> ENode:
        if isinstance(expr, IntLit):
            return self.dag.const(expr.value)
        if isinstance(expr, FloatLit):
            return self.dag.const(expr.value)
        if isinstance(expr, StringLit):
            return self.dag.const(expr.value)
        if isinstance(expr, BoolLit):
            return self.dag.const(expr.value)
        if isinstance(expr, NullLit):
            return self.dag.const(None)
        if isinstance(expr, Name):
            return ve.get(expr.ident, self.dag.var(expr.ident))
        if isinstance(expr, Binary):
            op = _BINOP_MAP.get(expr.op)
            if op is None:
                return OPAQUE
            return self.dag.op(
                op, self._convert(expr.left, ve), self._convert(expr.right, ve)
            )
        if isinstance(expr, Unary):
            operand = self._convert(expr.operand, ve)
            if expr.op == "!":
                return self.dag.op("not", operand)
            if expr.op == "-":
                return self.dag.op("neg", operand)
            return OPAQUE
        if isinstance(expr, Ternary):
            return self.dag.op(
                "?",
                self._convert(expr.cond, ve),
                self._convert(expr.if_true, ve),
                self._convert(expr.if_false, ve),
            )
        if isinstance(expr, Call):
            return self._convert_call(expr, ve)
        if isinstance(expr, MethodCall):
            return self._convert_method(expr, ve)
        if isinstance(expr, FieldAccess):
            return self.dag.attr(self._convert(expr.receiver, ve), expr.field)
        if isinstance(expr, New):
            if expr.class_name in ("ArrayList", "LinkedList", "List", "Vector"):
                return self.dag.op("empty_list")
            if expr.class_name in ("HashSet", "TreeSet", "Set", "LinkedHashSet"):
                return self.dag.op("empty_set")
            if expr.class_name in ("HashMap", "TreeMap", "Map", "LinkedHashMap"):
                return self.dag.op("empty_map")
            if expr.class_name in ("Pair", "Tuple"):
                return self.dag.op(
                    "tuple", *[self._convert(a, ve) for a in expr.args]
                )
            return OPAQUE
        return OPAQUE

    def _convert_call(self, expr: Call, ve: dict[str, ENode]) -> ENode:
        if expr.func in ("executeQuery", "executeQueryCursor", "executeScalar", "executeExists"):
            if len(expr.args) != 1:
                return OPAQUE
            query = self._convert_query(self._convert(expr.args[0], ve), ve)
            if not isinstance(query, EQuery):
                return OPAQUE
            if expr.func == "executeScalar":
                return self.dag.scalar_query(query.rel, query.params)
            if expr.func == "executeExists":
                return self.dag.exists(query.rel, query.params)
            return query
        if expr.func in ("print", "println"):
            return OPAQUE  # should have been preprocessed away
        return self._inline_function_value(expr, ve)

    def _convert_method(self, expr: MethodCall, ve: dict[str, ENode]) -> ENode:
        if isinstance(expr.receiver, Name) and expr.receiver.ident in STATIC_RECEIVERS:
            cls, method = expr.receiver.ident, expr.method
            args = [self._convert(a, ve) for a in expr.args]
            if cls == "Math" and method in ("max", "min"):
                return self.dag.op(method, *args)
            if cls == "Math" and method == "abs":
                return self.dag.op("abs", *args)
            if cls == "Integer" and method == "parseInt":
                return self.dag.op("to_int", *args)
            if cls == "Double" and method == "parseDouble":
                return self.dag.op("to_float", *args)
            return OPAQUE
        receiver = self._convert(expr.receiver, ve)
        method = expr.method
        if method in ("getString", "getInt", "getDouble", "getLong", "getBoolean", "getObject"):
            if len(expr.args) == 1 and isinstance(expr.args[0], StringLit):
                return self.dag.attr(receiver, expr.args[0].value)
            return OPAQUE
        # Library methods with ee-DAG operators take precedence over the
        # bean-getter convention (`isEmpty` is not a getter for `empty`).
        if method in _METHOD_OPS and len(expr.args) + 1 <= 3:
            mapped = _METHOD_OPS[method]
            if mapped == "identity":
                return receiver
            args = [self._convert(a, ve) for a in expr.args]
            return self.dag.op(mapped, receiver, *args)
        if method in ("getClass", "hashCode", "clone", "notify", "wait"):
            return OPAQUE  # java.lang.Object reflection — not modelled
        column = getter_to_column(method)
        if column is not None and not expr.args:
            return self.dag.attr(receiver, column)
        if method == "equals" and len(expr.args) == 1:
            return self.dag.op("==", receiver, self._convert(expr.args[0], ve))
        if method == "equalsIgnoreCase" and len(expr.args) == 1:
            return self.dag.op(
                "==",
                self.dag.op("lower", receiver),
                self.dag.op("lower", self._convert(expr.args[0], ve)),
            )
        if method == "compareTo":
            return OPAQUE  # custom comparator territory (paper limitation)
        mapped = _METHOD_OPS.get(method)
        if mapped is not None:
            args = [self._convert(a, ve) for a in expr.args]
            if mapped == "identity":
                return receiver
            return self.dag.op(mapped, receiver, *args)
        if method == "toString":
            return receiver
        return OPAQUE

    # ------------------------------------------------------------------
    # Query resolution

    def _convert_query(self, text_node: ENode, ve: dict[str, ENode]) -> ENode:
        """Resolve a query-string expression into an ``EQuery`` node.

        The string may be a constant or a concatenation embedding program
        expressions (``"... where id = " + id``); embedded expressions
        become query parameters, which is exactly the paper's resolution of
        query parameters to program inputs.
        """
        pieces = self._flatten_concat(text_node)
        if pieces is None:
            return OPAQUE
        text_parts: list[str] = []
        generated: dict[str, ENode] = {}
        for index, piece in enumerate(pieces):
            if isinstance(piece, EConst):
                if isinstance(piece.value, str):
                    text_parts.append(piece.value)
                else:
                    text_parts.append(str(piece.value))
            else:
                placeholder = f"__p{len(generated)}"
                generated[placeholder] = piece
                # `"... = '" + x + "'"` quotes a string value in source; the
                # placeholder replaces the quotes as well.
                if (
                    text_parts
                    and text_parts[-1].endswith("'")
                    and index + 1 < len(pieces)
                    and isinstance(pieces[index + 1], EConst)
                    and isinstance(pieces[index + 1].value, str)
                    and pieces[index + 1].value.startswith("'")
                ):
                    text_parts[-1] = text_parts[-1][:-1]
                    trailing = pieces[index + 1]
                    pieces[index + 1] = EConst(trailing.value[1:])
                text_parts.append(f":{placeholder}")
        text = "".join(text_parts)
        try:
            rel = parse_query(text)
        except SqlParseError:
            return OPAQUE
        bindings: list[tuple[str, ENode]] = []
        literal_bindings: dict[str, object] = {}
        for name in sorted(query_params(rel)):
            if name in generated:
                node = generated[name]
            else:
                node = ve.get(name, self.dag.var(name))
            if isinstance(node, EConst):
                literal_bindings[name] = node.value
            else:
                bindings.append((name, node))
        if literal_bindings:
            rel = bind_rel_params(
                rel, {k: Lit(v) for k, v in literal_bindings.items()}
            )
        return self.dag.query(rel, tuple(bindings))

    def _flatten_concat(self, node: ENode) -> list[ENode] | None:
        """Flatten a ``+`` chain into pieces; None when clearly not a string."""
        if isinstance(node, EOp) and node.op == "+" and len(node.operands) == 2:
            left = self._flatten_concat(node.operands[0])
            right = self._flatten_concat(node.operands[1])
            if left is None or right is None:
                return None
            return left + right
        if isinstance(node, EOp) and node.op == "opaque":
            return None
        return [node]


def _collection_kind(class_name: str) -> str | None:
    if class_name in ("HashSet", "TreeSet", "Set", "LinkedHashSet"):
        return "set"
    if class_name in ("ArrayList", "LinkedList", "List", "Vector"):
        return "list"
    if class_name in ("HashMap", "TreeMap", "Map", "LinkedHashMap"):
        return "map"
    return None


def build_dir(program: Program, function: str) -> tuple[dict[str, ENode], DIRContext]:
    """Convenience: build the D-IR ve-Map for one function of a preprocessed
    program.  Returns (ve-Map, context)."""
    context = DIRContext(program=program)
    builder = DIRBuilder(context)
    ve = builder.build_function(function)
    return ve, context
