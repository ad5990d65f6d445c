"""EqSQL: the end-to-end extraction pipeline (paper Figure 1).

``extract_sql`` runs source → regions → D-IR → F-IR → rules → SQL and
classifies every analysed variable:

``success``  equivalent SQL was extracted;
``capable``  the techniques cover the construct but (like the paper's
             reference implementation) no SQL emitter exists for it — the
             Table 1 "✓" rows;
``failed``   a precondition was violated (the Table 1 "–" rows).

``optimize_program`` additionally rewrites the program to use the extracted
SQL, applying the paper's Section 5.3 heuristic: a loop is only rewritten
when every variable that is live after it was successfully extracted.  With
a deployment profile it also applies the cost-based verdict (Appendix C,
Cobra): a loop whose as-written form costs less than its push-down stays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..algebra import Catalog
from ..analysis import analysis_scope, function_index
from ..fir import (
    check_preconditions_ddg,
    loop_to_fold,
    try_dependent_aggregation,
)
from ..ir import (
    ELoop,
    ENode,
    EQuery,
    EVar,
    OUT_VAR,
    RET_VAR,
    build_dir,
    contains_fold,
    contains_loop,
    contains_opaque,
    preprocess_program,
    walk_enodes,
)
from ..frontends import get_frontend
from ..lang import Assign, Name, Program
# Submodule imports (not ``..lint``) keep the import graph acyclic: the
# lint package's __init__ pulls in the batch layer, which imports core.
from ..lint.codes import code_info
from ..lint.diagnostics import Diagnostic, SourceSpan
from ..lint.engine import blockers_for, lint_preprocessed, loop_nesting
from ..rewrite import (
    EmitError,
    LoopMaps,
    eliminate_dead_code,
    insert_extractions,
    loop_extractions,
)
from ..rules import RuleEngine
from ..sqlgen import SqlGenError, render_rel
from .options import ExtractOptions

STATUS_SUCCESS = "success"
STATUS_CAPABLE = "capable"
STATUS_FAILED = "failed"


@dataclass
class VariableExtraction:
    """Outcome of extraction for one program variable."""

    variable: str
    status: str
    loop_sid: int = -1
    node: ENode | None = None
    sql: str | None = None
    #: ``reason`` is derived: the first diagnostic's message (kept as a
    #: plain field for backward compatibility with existing consumers).
    reason: str = ""
    rule_trace: list[str] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Cost-based rewrite selection for this variable's site (the
    #: serialized :class:`~repro.rewrites.SiteChoice`), populated when
    #: extraction ran with ``ExtractOptions(profile=...)``.
    rewrite: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS

    def to_dict(self) -> dict:
        """A JSON-ready view (the internal F-IR node is omitted)."""
        return {
            "variable": self.variable,
            "status": self.status,
            "loop_sid": self.loop_sid,
            "sql": self.sql,
            "reason": self.reason,
            "rule_trace": list(self.rule_trace),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "rewrite": self.rewrite,
        }


@dataclass
class ExtractionReport:
    """Result of running EqSQL on one function."""

    function: str
    variables: dict[str, VariableExtraction]
    original: Program
    rewritten: Program | None = None
    extraction_time_ms: float = 0.0
    rewritten_loops: list[int] = field(default_factory=list)
    #: Figure 12→13 style consolidations: loops whose correlated scalar
    #: queries were merged into one OUTER APPLY query.
    consolidations: list = field(default_factory=list)
    #: Function-level lint findings (all severities), computed once per run.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Name of the language frontend that parsed the source (see
    #: :mod:`repro.frontends`); rewritten programs render back through it.
    frontend: str = "minijava"
    #: The preprocessed function's loops and liveness, built once per run
    #: and shared by every consumer (see :class:`~repro.rewrite.LoopMaps`).
    loop_maps: LoopMaps | None = None
    #: Cost-based rewrite selection over the alternative space (a
    #: :class:`~repro.rewrites.RewritePlan`), when a profile was given.
    rewrite_plan = None

    @property
    def status(self) -> str:
        """Aggregate sample status, Table 1 style.

        No analysable variable at all (e.g. only non-cursor loops or opaque
        computations) counts as a failure.
        """
        states = [v.status for v in self.variables.values()]
        if states and all(s == STATUS_SUCCESS for s in states):
            return STATUS_SUCCESS
        if any(s == STATUS_CAPABLE for s in states):
            return STATUS_CAPABLE
        return STATUS_FAILED

    def extraction(self, variable: str) -> VariableExtraction:
        return self.variables[variable]

    def queries(self) -> list[str]:
        return [v.sql for v in self.variables.values() if v.sql]

    def to_dict(self) -> dict:
        """A JSON-ready view of the report.

        ASTs are rendered back to source (``rewritten``) rather than
        serialized structurally; the result round-trips through
        ``json.dumps``/``json.loads`` unchanged.  The rewritten program
        renders through the frontend that parsed the source, so a Python
        input yields Python output.
        """
        return {
            "function": self.function,
            "status": self.status,
            "frontend": self.frontend,
            "extraction_time_ms": self.extraction_time_ms,
            "variables": {
                name: extraction.to_dict()
                for name, extraction in self.variables.items()
            },
            "rewritten_loops": list(self.rewritten_loops),
            "consolidations": [
                {
                    "loop_sid": c.loop_sid,
                    "queries_merged": c.queries_merged,
                    "sql": c.sql,
                }
                for c in self.consolidations
            ],
            "rewritten": (
                get_frontend(self.frontend).unparse(self.rewritten)
                if self.rewritten is not None
                else None
            ),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "profile": (
                self.rewrite_plan.profile.name
                if self.rewrite_plan is not None
                else None
            ),
            "rewrites": (
                self.rewrite_plan.to_dict()
                if self.rewrite_plan is not None
                else None
            ),
        }


@analysis_scope()
def extract_sql(
    source: str | Program,
    function: str,
    catalog: Catalog,
    targets: list[str] | None = None,
    disabled_rules: frozenset[str] = frozenset(),
    custom_aggregates: dict | None = None,
    *,
    options: ExtractOptions | None = None,
) -> ExtractionReport:
    """Run the extraction pipeline without rewriting the program.

    Behavioural knobs travel in ``options=`` (an
    :class:`~repro.core.ExtractOptions`).

    ``ExtractOptions(ordering_matters=False)`` enables the keyword-search
    relaxation (Experiment 3): result order is irrelevant, so rule T4's
    unique-key precondition is waived.

    ``ExtractOptions(allow_temp_tables=True)`` enables the paper's Section 2
    fallback for loops over collections that are not query results: the
    collection is shipped to the database as a temporary table, which a
    query over it then replaces.  Off by default (the paper's implementation
    focuses on the query-derived case, and Table 1 sample 29 fails
    accordingly).
    """
    if options is None:
        options = ExtractOptions()
    elif not isinstance(options, ExtractOptions):
        raise TypeError(
            f"options= expects ExtractOptions, got {type(options).__name__}"
        )
    start = time.perf_counter()
    raw_program = (
        get_frontend(options.frontend).parse(source)
        if isinstance(source, str)
        else source
    )
    program = preprocess_program(raw_program, precision=options.precision)
    ve, ctx = build_dir(program, function)
    maps = LoopMaps.of(program.function(function))

    if targets is None:
        targets = _default_targets(ve, maps)

    # Soundness gate: run the lint passes once; EQ1xx findings forbid
    # extraction from the loops (or variables) they cover.  With precision
    # enabled, blockers the points-to analysis proves harmless arrive
    # downgraded below ERROR and no longer gate.
    lint_diags = lint_preprocessed(
        program, raw_program, function, precision=options.precision
    )
    nesting = loop_nesting(program.function(function))

    engine = RuleEngine(
        catalog,
        ctx.dag,
        disabled=disabled_rules,
        ordering_matters=options.ordering_matters,
        custom_aggregates=custom_aggregates,
    )
    variables: dict[str, VariableExtraction] = {}
    for target in targets:
        variables[target] = _extract_variable(
            target, ve, ctx, engine, program, function, options.dialect,
            maps.loops, allow_temp_tables=options.allow_temp_tables,
            lint_diags=lint_diags, nesting=nesting,
        )

    report = ExtractionReport(
        function=function,
        variables=variables,
        original=program,
        diagnostics=lint_diags,
        frontend=options.frontend,
        loop_maps=maps,
    )
    if options.profile is not None:
        _attach_rewrite_plan(report, catalog, options)
    report.extraction_time_ms = (time.perf_counter() - start) * 1000.0
    return report


def _attach_rewrite_plan(report: ExtractionReport, catalog, options) -> None:
    """Cost-based selection over the site's rewrite space (Cobra).

    Generates every alternative, costs it under the named deployment
    profile and records the winner-with-justification on the report and on
    each variable of the site.
    """
    # Function-level import: repro.rewrites depends on the rewrite/analysis
    # layers but not on repro.core, which keeps the import graph acyclic.
    from ..rewrites import plan_rewrites

    plan = plan_rewrites(
        report, catalog, options.profile, dialect=options.dialect
    )
    report.rewrite_plan = plan
    for choice in plan.choices:
        serialized = choice.to_dict()
        for name in choice.site.variables:
            extraction = report.variables.get(name)
            if extraction is not None:
                extraction.rewrite = serialized


@analysis_scope()
def optimize_program(
    source: str | Program,
    function: str,
    catalog: Catalog,
    targets: list[str] | None = None,
    *,
    options: ExtractOptions | None = None,
) -> ExtractionReport:
    """Extract SQL and rewrite the program (Section 5.2).

    A loop is rewritten when the Section 5.3 heuristic allows it: every
    variable live after the loop was successfully extracted.  When
    ``options.profile`` names a deployment profile, the cost-based verdict
    of :func:`~repro.rewrites.plan_rewrites` applies too: a heuristic-eligible
    loop stays as written when that alternative costs less than push-down
    (ties go to push-down).  In a loop nest the outermost rewritten loop's
    site decides for the loops under it; a loop over the collection another
    rewritten loop builds follows that loop.
    """
    start = time.perf_counter()
    report = extract_sql(source, function, catalog, targets, options=options)
    options = options or ExtractOptions()
    program = report.original
    func = program.function(function)

    sites = loop_extractions(report.loop_maps, report.variables.values())
    plan = {sid: site.pairs for sid, site in sites.items() if site.push_down}
    if report.rewrite_plan is not None:
        plan = _apply_cost_verdict(plan, report.rewrite_plan, func, sites)

    rewritten = program
    if plan:
        try:
            rewritten = insert_extractions(program, function, plan, options.dialect)
            rewritten = eliminate_dead_code(rewritten, function)
            report.rewritten_loops = sorted(plan)
        except EmitError:
            rewritten = program

    # Figure 12→13 consolidation for any loop that survived the rewrite.
    from ..rewrite import consolidate_loops

    rewritten, consolidations = consolidate_loops(
        rewritten, function, catalog, options.dialect
    )
    report.consolidations = consolidations

    if report.rewritten_loops or consolidations:
        report.rewritten = rewritten
    # The paper's Figure 7(b) timings cover the whole pipeline; replace the
    # extract-only elapsed time with one that includes rewriting, dead-code
    # elimination and consolidation.
    report.extraction_time_ms = (time.perf_counter() - start) * 1000.0
    return report


# ----------------------------------------------------------------------


def _apply_cost_verdict(plan: dict, rewrite_plan, func, sites) -> dict:
    """Drop the planned loops whose deciding site costs less as written
    than pushed down.

    A planned loop's parent is the outermost planned loop enclosing it, or
    else the planned loop that builds the collection it iterates (its
    extraction composes that loop's fold).  The root of that chain is the
    deciding site, so a nest is kept or pushed down as a whole.
    """
    nesting = loop_nesting(func)
    builders = {var: sid for sid, pairs in plan.items() for var, _ in pairs}

    def parent(sid: int) -> int | None:
        enclosing = [o for o in plan if o != sid and sid in nesting[o]]
        if enclosing:
            return max(enclosing, key=lambda o: len(nesting[o]))
        iterable = sites[sid].loop.iterable
        return builders.get(iterable.ident) if isinstance(iterable, Name) else None

    def decider(sid: int) -> int:
        seen = {sid}
        while (up := parent(sid)) is not None and up not in seen:
            seen.add(up)
            sid = up
        return sid

    def as_written_wins(sid: int) -> bool:
        choice = rewrite_plan.choice_for(sid)
        return choice is not None and choice.as_written_wins

    return {
        sid: pairs for sid, pairs in plan.items() if not as_written_wins(decider(sid))
    }


def _default_targets(ve, maps: LoopMaps) -> list[str]:
    """Variables updated by cursor loops and observable afterwards."""
    targets: list[str] = []
    loop_stmts, live = maps.loops, maps.live
    for name, node in ve.items():
        if name in (RET_VAR,) or name.startswith("@"):
            continue
        loops = [n for n in walk_enodes(node) if isinstance(n, ELoop) and n.var == name]
        if not loops or loops[0].loop_sid not in loop_stmts:
            continue
        if name in live[loops[0].loop_sid] or name == OUT_VAR:
            targets.append(name)
    return sorted(targets)


def _bail_diagnostic(
    code: str, span: SourceSpan, message: str, function: str, variable: str,
    loop_sid: int,
) -> Diagnostic:
    """A coded diagnostic for one extractor bail-out."""
    info = code_info(code)
    return Diagnostic(
        span=span,
        code=code,
        severity=info.severity,
        message=message,
        function=function,
        variable=variable,
        loop_sid=loop_sid,
        hint=info.hint,
    )


def _span_for(target, loop_sid, loop_stmts, func) -> SourceSpan:
    """Best source span for a bail-out: the loop statement, else the
    variable's last assignment, else the function header."""
    stmt = loop_stmts.get(loop_sid)
    if stmt is not None and stmt.line:
        return SourceSpan(stmt.line, stmt.col)
    best = None
    for info in function_index(func).entries:
        s = info.stmt
        if isinstance(s, Assign) and s.target == target and s.line:
            best = s
    if best is not None:
        return SourceSpan(best.line, best.col)
    return SourceSpan(func.line, func.col)


def _extract_variable(
    target, ve, ctx, engine, program, function, dialect, loop_stmts,
    allow_temp_tables=False, lint_diags=(), nesting=None,
) -> VariableExtraction:
    nesting = nesting if nesting is not None else {}
    func = program.function(function)

    def fail(code, reason, loop_sid, *, status=STATUS_FAILED, extra=None,
             trace=None, node_=None):
        diag = _bail_diagnostic(
            code, _span_for(target, loop_sid, loop_stmts, func), reason,
            function, target, loop_sid,
        )
        return VariableExtraction(
            variable=target,
            status=status,
            loop_sid=loop_sid,
            node=node_,
            reason=reason,
            rule_trace=trace or [],
            diagnostics=(extra or []) + [diag],
        )

    node = ve.get(target)
    if node is None:
        return fail("EQ206", "variable not assigned", -1)
    loop_sid = _primary_loop_sid(node, target)

    # Soundness gate: an EQ1xx finding covering this loop (or naming this
    # variable) forbids extraction regardless of what the translation
    # pipeline would make of it.
    blockers = blockers_for(list(lint_diags), nesting, loop_sid, target)
    if blockers:
        return VariableExtraction(
            variable=target,
            status=STATUS_FAILED,
            loop_sid=loop_sid,
            reason=blockers[0].message,
            diagnostics=list(blockers),
        )

    if contains_opaque(node):
        return fail(
            "EQ201",
            "unsupported construct in the variable's computation",
            loop_sid,
        )

    temp_table: tuple[str, str] | None = None
    if allow_temp_tables:
        node, temp_table = _substitute_temp_source(node, ctx)

    outcome = loop_to_fold(node, ctx.dag)
    if not outcome.ok:
        # Appendix B relaxation: dependent aggregation (argmax/argmin).
        relaxed = _try_argmax(node, ve, ctx)
        if relaxed is None:
            return fail(outcome.code or "EQ201", outcome.reason, loop_sid)
        fir_node = relaxed
    else:
        fir_node = outcome.node

    result, trace = engine.transform(fir_node)
    if contains_fold(result) or contains_loop(result):
        status = STATUS_CAPABLE if _capable_hits(trace, result) else STATUS_FAILED
        return fail(
            "EQ204",
            "transformation incomplete: fold remains",
            loop_sid,
            status=status,
            trace=trace,
        )

    sql = _sql_of(result, dialect)
    if sql is None:
        return fail(
            "EQ205",
            "F-IR extracted but no SQL emitter for some construct",
            loop_sid,
            status=STATUS_CAPABLE,
            trace=trace,
            node_=result,
        )
    if temp_table is not None:
        table_name, source_var = temp_table
        result = ctx.dag.op(
            "with_temp",
            result,
            ctx.dag.const(table_name),
            ctx.dag.var(source_var),
        )
    return VariableExtraction(
        variable=target,
        status=STATUS_SUCCESS,
        loop_sid=loop_sid,
        node=result,
        sql=sql,
        rule_trace=trace,
    )


def _substitute_temp_source(node: ENode, ctx) -> tuple[ENode, tuple[str, str] | None]:
    """Replace a Loop over a plain collection with a temp-table query.

    Paper Section 2's fallback: the collection's contents become a
    temporary table ``__temp_<var>`` at the database and the loop iterates
    ``SELECT * FROM __temp_<var>``.  Only the outermost Loop is handled.
    """
    from ..algebra import Table

    if not isinstance(node, ELoop) or not isinstance(node.source, EVar):
        return node, None
    source_var = node.source.name
    table_name = f"__temp_{source_var}"
    query = ctx.dag.query(Table(table_name))
    replaced = ctx.dag.loop(
        query, node.body, node.init, node.var, node.cursor, node.updated,
        node.loop_sid, node.span,
    )
    return replaced, (table_name, source_var)


def _primary_loop_sid(node: ENode, target: str) -> int:
    for n in walk_enodes(node):
        if isinstance(n, ELoop) and n.var == target:
            return n.loop_sid
    from ..ir import EFold

    for n in walk_enodes(node):
        if isinstance(n, (ELoop, EFold)):
            return n.loop_sid
    return -1


def _try_argmax(node: ENode, ve, ctx) -> ENode | None:
    if not isinstance(node, ELoop):
        return None
    siblings = {
        name: value
        for name, value in ve.items()
        if isinstance(value, ELoop) and value.loop_sid == node.loop_sid
    }
    return try_dependent_aggregation(node, siblings, ctx.dag)


def _capable_hits(trace, result) -> bool:
    """Classify an incomplete transformation as technique-capable.

    The reference implementation's gaps were operators with F-IR semantics
    but no SQL emitter (the Table 1 "✓" rows); a stuck fold whose function
    uses such an operator — and nothing opaque — is the same situation.
    """
    from ..fir import CAPABLE_UNIMPLEMENTED_OPS
    from ..ir import EFold, EOp

    for n in walk_enodes(result):
        if not isinstance(n, EFold):
            continue
        ops = {
            sub.op for sub in walk_enodes(n.func) if isinstance(sub, EOp)
        }
        if "opaque" in ops:
            continue
        if ops & CAPABLE_UNIMPLEMENTED_OPS:
            return True
    return False


def _sql_of(node: ENode, dialect: str) -> str | None:
    """Render the primary SQL for a fully-transformed result.

    For collection results this is the query itself; for scalar results the
    report shows the main embedded query (the rewritten program recombines
    it with initial values in source code, Section 5.2).
    """
    from ..ir import EExists, EScalarQuery

    try:
        if isinstance(node, EQuery):
            return render_rel(node.rel, dialect)
        queries = [
            n
            for n in walk_enodes(node)
            if isinstance(n, (EQuery, EScalarQuery, EExists))
        ]
        if not queries:
            return None
        rendered = [render_rel(q.rel, dialect) for q in queries]
        return rendered[0] if len(rendered) == 1 else "; ".join(rendered)
    except SqlGenError:
        return None
