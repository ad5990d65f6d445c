"""Per-extraction-site alternative generation (the Cobra rewrite space).

For every loop the extractor analysed, this module produces the *space* of
equivalent implementations instead of the single rewrite
``optimize_program`` commits to:

``as-written``  the original imperative loop, kept verbatim (always in the
                space — it is the baseline every other member is verified
                against);
``pushdown``    full SQL push-down: the Section 5.2 rewrite of this one
                site (insert extractions, then dead-code elimination);
``batched``     Guravannavar-style parameter batching of an N+1 loop: ship
                the outer keys as a temporary table, fetch all inner rows
                in one join query, and probe a client-side HashMap inside
                the loop;
``prefetch``    fetch the whole inner table up front and join in the
                application — fewer round trips than ``batched``, more
                transfer;
``hybrid``      partial extraction when only some of the loop's variables
                extracted: push the successful ones, keep the residual
                loop for the rest.

Every alternative is a complete, runnable :class:`~repro.lang.Program`,
which is what lets the difftest oracle execute each one against the
as-written program (see :mod:`repro.rewrites.verify`).  Generation is
profile-independent; costing and selection live in
:mod:`repro.rewrites.cost` / :mod:`repro.rewrites.selector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import BinOp, Catalog, Col, Param, Project, RelExpr, Select, Table
from ..ir import EExists, EQuery, EScalarQuery, walk_enodes
from ..lang import (
    Assign,
    Block,
    Call,
    ExprStmt,
    ForEach,
    If,
    MethodCall,
    Name,
    New,
    Program,
    Stmt,
    StringLit,
    Unary,
    child_blocks,
    clone_statements,
    number_statements,
    statement_expressions,
    walk_expressions,
    walk_statements,
)
from ..rewrite import (
    EmitError,
    eliminate_dead_code,
    insert_extractions,
    loop_extractions,
)
from ..sqlparse import SqlParseError, parse_query

KIND_AS_WRITTEN = "as-written"
KIND_PUSHDOWN = "pushdown"
KIND_BATCHED = "batched"
KIND_PREFETCH = "prefetch"
KIND_HYBRID = "hybrid"

#: Calls a loop body may make and still be eligible for batching: database
#: reads and output.  Anything else (user functions, writes) could observe
#: interleaving with the per-row queries, so batching is not attempted.
_BATCHABLE_CALLS = frozenset(
    {"executeQuery", "executeQueryCursor", "executeScalar", "executeExists",
     "print", "println"}
)
_DB_CALLS = frozenset(
    {"executeQuery", "executeQueryCursor", "executeScalar", "executeExists"}
)


@dataclass
class InnerLookup:
    """One ``v = executeScalar("... where key = :param")`` inside a loop."""

    assign_sid: int
    target: str
    param: str
    key_getter: str
    table: str
    key_column: str
    value_column: str
    rel: RelExpr


@dataclass
class Alternative:
    """One member of a site's rewrite space."""

    kind: str
    program: Program
    description: str
    #: Queries this alternative issues once, up front (push-down/hybrid).
    extracted_rels: list[RelExpr] = field(default_factory=list)
    #: True for the as-written member (identical to the original program).
    identity: bool = False

    def source(self) -> str:
        from ..lang import unparse_program

        return unparse_program(self.program)


@dataclass
class Site:
    """One extraction site (a loop) together with its rewrite space."""

    function: str
    loop_sid: int
    variables: list[str]
    outer_rel: RelExpr | None
    inner_lookups: list[InnerLookup]
    #: Per-row database calls the lookup matcher could not batch away.
    residual_inner_queries: int
    alternatives: list[Alternative] = field(default_factory=list)

    def alternative(self, kind: str) -> Alternative | None:
        for alt in self.alternatives:
            if alt.kind == kind:
                return alt
        return None

    @property
    def kinds(self) -> list[str]:
        return [alt.kind for alt in self.alternatives]


# ----------------------------------------------------------------------
# Generation


def generate_alternatives(report, catalog: Catalog, dialect: str = "repro") -> list[Site]:
    """The full rewrite space for every extraction site of ``report``.

    ``report`` is an :class:`~repro.core.ExtractionReport`; the function
    only relies on its ``original``/``function``/``variables``/``loop_maps``
    fields, so the rewrites layer stays import-independent of
    :mod:`repro.core`.
    """
    program = report.original
    func = program.function(report.function)
    loops = loop_extractions(report.loop_maps, report.variables.values())

    sites: list[Site] = []
    for loop_sid, loop in sorted(loops.items()):
        loop_stmt = loop.loop

        outer_name = _outer_iterable_name(loop_stmt)
        outer_rel = _outer_rel(func, loop_stmt, outer_name)
        lookups, residual = _find_inner_lookups(loop_stmt, catalog)

        site = Site(
            function=report.function,
            loop_sid=loop_sid,
            variables=sorted(e.variable for e in loop.extractions),
            outer_rel=outer_rel,
            inner_lookups=lookups,
            residual_inner_queries=residual,
        )
        site.alternatives.append(
            Alternative(
                kind=KIND_AS_WRITTEN,
                program=program,
                description="keep the imperative loop exactly as written",
                identity=True,
            )
        )

        if loop.push_down:
            alt = _extraction_alternative(
                program, report.function, loop_sid, loop.pairs, dialect,
                kind=KIND_PUSHDOWN,
                description="replace the loop with its extracted SQL "
                "(full push-down, Section 5.2)",
            )
            if alt is not None:
                site.alternatives.append(alt)
        elif loop.pairs:
            alt = _extraction_alternative(
                program, report.function, loop_sid, loop.pairs, dialect,
                kind=KIND_HYBRID,
                description="push down the extractable variables, keep a "
                "residual loop for the rest (partial extraction)",
            )
            if alt is not None:
                site.alternatives.append(alt)

        if lookups and _body_is_batchable(loop_stmt) and outer_name is not None:
            batched = _lookup_alternative(
                program, report.function, loop_sid, lookups, outer_name,
                prefetch=False,
            )
            if batched is not None:
                site.alternatives.append(batched)
            prefetch = _lookup_alternative(
                program, report.function, loop_sid, lookups, outer_name,
                prefetch=True,
            )
            if prefetch is not None:
                site.alternatives.append(prefetch)

        sites.append(site)
    return sites


# ----------------------------------------------------------------------
# Push-down / hybrid: reuse the Section 5.2 rewrite machinery per site.


def _extraction_alternative(
    program, function, loop_sid, pairs, dialect, *, kind, description
) -> Alternative | None:
    try:
        rewritten = insert_extractions(program, function, {loop_sid: pairs}, dialect)
        rewritten = eliminate_dead_code(rewritten, function)
    except EmitError:
        return None
    rels = [
        n.rel
        for _, node in pairs
        for n in walk_enodes(node)
        if isinstance(n, (EQuery, EScalarQuery, EExists))
    ]
    return Alternative(
        kind=kind,
        program=rewritten,
        description=description,
        extracted_rels=rels,
    )


# ----------------------------------------------------------------------
# Batched / prefetch: the N+1 point-lookup pattern.


def _outer_iterable_name(loop_stmt: ForEach) -> str | None:
    if isinstance(loop_stmt.iterable, Name):
        return loop_stmt.iterable.ident
    return None


def _outer_rel(func, loop_stmt: ForEach, outer_name: str | None) -> RelExpr | None:
    """The query the loop iterates, when it is a plain ``executeQuery``."""
    candidates: list[Call] = []
    if isinstance(loop_stmt.iterable, Call):
        candidates.append(loop_stmt.iterable)
    elif outer_name is not None:
        last = None
        for stmt in walk_statements(func.body):
            if stmt.sid >= loop_stmt.sid:
                break
            if isinstance(stmt, Assign) and stmt.target == outer_name:
                last = stmt
        if last is not None and isinstance(last.value, Call):
            candidates.append(last.value)
    for call in candidates:
        if (
            call.func in ("executeQuery", "executeQueryCursor")
            and len(call.args) == 1
            and isinstance(call.args[0], StringLit)
        ):
            try:
                return parse_query(call.args[0].value)
            except SqlParseError:
                return None
    return None


def _find_inner_lookups(
    loop_stmt: ForEach, catalog: Catalog
) -> tuple[list[InnerLookup], int]:
    """Match direct-child ``param = cursor.getX(); v = executeScalar(...)``
    pairs whose query is a point lookup on a declared unique key.

    Returns the matched lookups and the count of per-row database calls
    the matcher could *not* account for (these stay per-row in the
    batched/prefetch programs, and are charged as such by the cost model).
    """
    body = loop_stmt.body.statements
    param_getters: dict[str, str] = {}
    param_assign_counts: dict[str, int] = {}
    for stmt in walk_statements(loop_stmt.body):
        if isinstance(stmt, Assign):
            param_assign_counts[stmt.target] = param_assign_counts.get(stmt.target, 0) + 1

    lookups: list[InnerLookup] = []
    matched_sids: set[int] = set()
    for stmt in body:
        if (
            isinstance(stmt, Assign)
            and isinstance(stmt.value, MethodCall)
            and isinstance(stmt.value.receiver, Name)
            and stmt.value.receiver.ident == loop_stmt.var
            and not stmt.value.args
        ):
            param_getters[stmt.target] = stmt.value.method
            continue
        lookup = _match_scalar_lookup(stmt, param_getters, param_assign_counts, catalog)
        if lookup is not None:
            lookups.append(lookup)
            matched_sids.add(stmt.sid)

    residual = 0
    for stmt in walk_statements(loop_stmt.body):
        if stmt.sid in matched_sids:
            continue
        for expr in statement_expressions(stmt):
            for node in walk_expressions(expr):
                if isinstance(node, Call) and node.func in _DB_CALLS:
                    residual += 1
    return lookups, residual


def _match_scalar_lookup(
    stmt: Stmt, param_getters: dict[str, str], param_assign_counts: dict[str, int],
    catalog: Catalog,
) -> InnerLookup | None:
    if not (
        isinstance(stmt, Assign)
        and isinstance(stmt.value, Call)
        and stmt.value.func == "executeScalar"
        and len(stmt.value.args) == 1
        and isinstance(stmt.value.args[0], StringLit)
    ):
        return None
    try:
        rel = parse_query(stmt.value.args[0].value)
    except SqlParseError:
        return None
    match = _match_point_lookup(rel)
    if match is None:
        return None
    table, key_column, value_column, param = match
    if param not in param_getters or param_assign_counts.get(param, 0) != 1:
        return None
    if table not in catalog:
        return None
    if catalog.get(table).key != (key_column,):
        return None
    return InnerLookup(
        assign_sid=stmt.sid,
        target=stmt.target,
        param=param,
        key_getter=param_getters[param],
        table=table,
        key_column=key_column,
        value_column=value_column,
        rel=rel,
    )


def _match_point_lookup(rel: RelExpr) -> tuple[str, str, str, str] | None:
    """``π[V](σ[K = :p](T))`` → ``(T, K, V, p)``, else None."""
    if not isinstance(rel, Project) or len(rel.items) != 1:
        return None
    item = rel.items[0]
    if not isinstance(item.expr, Col):
        return None
    select = rel.child
    if not isinstance(select, Select) or not isinstance(select.child, Table):
        return None
    pred = select.pred
    if not isinstance(pred, BinOp) or pred.op != "=":
        return None
    col, param = pred.left, pred.right
    if isinstance(col, Param) and isinstance(param, Col):
        col, param = param, col
    if not (isinstance(col, Col) and isinstance(param, Param)):
        return None
    return select.child.name, col.name, item.expr.name, param.name


def _body_is_batchable(loop_stmt: ForEach) -> bool:
    for stmt in walk_statements(loop_stmt.body):
        for expr in statement_expressions(stmt):
            for node in walk_expressions(expr):
                if isinstance(node, Call) and node.func not in _BATCHABLE_CALLS:
                    return False
    return True


def _lookup_alternative(
    program, function, loop_sid, lookups, outer_name, *, prefetch: bool
) -> Alternative | None:
    result = clone_statements(program)
    func = result.function(function)
    found = _find_loop(func.body, loop_sid)
    if found is None:
        return None
    loop_stmt, container, index = found

    pre: list[Stmt] = []
    rels: list[RelExpr] = []
    for i, lookup in enumerate(lookups):
        idx_var = f"__idx{i}"
        fetch_var = f"__fetch{i}"
        row_var = f"__row{i}"
        columns = [lookup.key_column]
        if lookup.value_column != lookup.key_column:
            columns.append(lookup.value_column)
        select_list = ", ".join(f"t.{c} as {c}" for c in columns)
        if prefetch:
            sql = f"select {select_list} from {lookup.table} as t"
        else:
            keys_var = f"__keys{i}"
            key_cursor = f"__k{i}"
            temp_table = f"__batch{i}"
            pre.append(Assign(target=keys_var, value=New(class_name="ArrayList", args=[])))
            pre.append(
                ForEach(
                    var=key_cursor,
                    iterable=Name(outer_name),
                    body=Block(
                        statements=[
                            ExprStmt(
                                expr=MethodCall(
                                    Name(keys_var),
                                    "add",
                                    [MethodCall(Name(key_cursor), lookup.key_getter, [])],
                                )
                            )
                        ]
                    ),
                )
            )
            pre.append(
                ExprStmt(
                    expr=Call(
                        func="registerTempTable",
                        args=[StringLit(temp_table), Name(keys_var)],
                    )
                )
            )
            sql = (
                f"select {select_list} from {lookup.table} as t, "
                f"{temp_table} as b where t.{lookup.key_column} = b.val"
            )
        try:
            rels.append(parse_query(sql))
        except SqlParseError:
            return None
        pre.append(
            Assign(target=fetch_var, value=Call(func="executeQuery", args=[StringLit(sql)]))
        )
        pre.append(Assign(target=idx_var, value=New(class_name="HashMap", args=[])))
        key_expr = MethodCall(Name(row_var), _getter(lookup.key_column), [])
        value_expr = MethodCall(Name(row_var), _getter(lookup.value_column), [])
        put = ExprStmt(expr=MethodCall(Name(idx_var), "put", [key_expr, value_expr]))
        # executeScalar takes the first matching row; the unique key makes
        # first-match and only-match coincide, but guard anyway.
        first_match_only = If(
            cond=Unary(op="!", operand=MethodCall(Name(idx_var), "containsKey", [key_expr])),
            then_body=Block(statements=[put]),
        )
        pre.append(
            ForEach(
                var=row_var,
                iterable=Name(fetch_var),
                body=Block(statements=[first_match_only]),
            )
        )
        if not _replace_assign(
            loop_stmt.body,
            lookup.assign_sid,
            Assign(
                target=lookup.target,
                value=MethodCall(Name(idx_var), "get", [Name(lookup.param)]),
            ),
        ):
            return None

    container.statements[index:index] = pre
    number_statements(result)
    if prefetch:
        description = (
            "prefetch the whole inner table once and join in the "
            "application with a HashMap"
        )
    else:
        description = (
            "ship the outer keys as a temporary table, fetch all inner "
            "rows in one join, probe a HashMap in the loop"
        )
    return Alternative(
        kind=KIND_PREFETCH if prefetch else KIND_BATCHED,
        program=result,
        description=description,
        extracted_rels=rels,
    )


def _find_loop(block: Block, loop_sid: int) -> tuple[ForEach, Block, int] | None:
    for index, stmt in enumerate(block.statements):
        if isinstance(stmt, ForEach) and stmt.sid == loop_sid:
            return stmt, block, index
        for child in child_blocks(stmt):
            found = _find_loop(child, loop_sid)
            if found is not None:
                return found
    return None


def _replace_assign(block: Block, assign_sid: int, replacement: Stmt) -> bool:
    for index, stmt in enumerate(block.statements):
        if isinstance(stmt, Assign) and stmt.sid == assign_sid:
            block.statements[index] = replacement
            return True
        for child in child_blocks(stmt):
            if _replace_assign(child, assign_sid, replacement):
                return True
    return False


def _getter(column: str) -> str:
    return "get" + column[0].upper() + column[1:]
