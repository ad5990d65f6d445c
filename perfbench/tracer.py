"""Per-layer tracing for the benchmark, installed from outside the package.

A :class:`Tracer` replaces each layer's public entry points (listed in
:data:`LAYERS`) with thin wrappers that record one span per call: layer,
start, end, parent span and op id.  The wrappers are installed only for the
traced phase and removed afterwards, so the untraced phase — and every
end-to-end number — runs the original, unwrapped functions.  Spans stay in
memory until the run ends.

A function imported by name into other modules (``from ..sqlparse import
parse_query``) is patched in every ``repro`` module that holds it, so calls
through those bindings are traced too.  A call nested directly inside a
span of the same layer (``insert_many`` → ``insert``, ``optimize_program``
→ ``extract_sql``) is folded into the outer span, so ``calls`` counts
entries into a layer rather than its internal recursion.
"""

from __future__ import annotations

import importlib
import sys
import time

#: What a faster layer should move, on which workload.
_EXTRACTION = "ops_per_s, op_p50_ms on extract; setup_s elsewhere"
_PER_QUERY = "ops_per_s, op_p99_ms on as_written; nothing on pushed_down"
_WRITES = "ops_per_s, peak_rss_mb on refresh; nothing on pushed_down"

#: Layer → (module, qualified name) of each public call spanned, and the
#: end-to-end metric the layer should move on which workload.
LAYERS: tuple[tuple[str, tuple[tuple[str, str], ...], str], ...] = (
    ("frontends", (("repro.frontends.minijava", "MiniJavaFrontend.parse"),
                   ("repro.frontends.python.frontend", "PythonFrontend.parse")),
     _EXTRACTION),
    ("core", (("repro.core.extractor", "optimize_program"),
              ("repro.core.extractor", "extract_sql")),
     _EXTRACTION),
    ("ir.preprocess", (("repro.ir.preprocess", "preprocess_program"),),
     _EXTRACTION),
    ("ir.builder", (("repro.ir.builder", "build_dir"),),
     _EXTRACTION),
    ("lint", (("repro.lint.engine", "lint_preprocessed"),),
     _EXTRACTION),
    ("fir", (("repro.fir.loop_to_fold", "loop_to_fold"),),
     _EXTRACTION),
    ("rules", (("repro.rules.engine", "RuleEngine.transform"),),
     _EXTRACTION),
    ("sqlgen", (("repro.sqlgen.generator", "render_rel"),),
     _EXTRACTION),
    ("rewrite", (("repro.rewrite.rewriter", "insert_extractions"),
                 ("repro.rewrite.rewriter", "eliminate_dead_code"),
                 ("repro.rewrite.consolidate", "consolidate_loops")),
     _EXTRACTION),
    ("rewrites", (("repro.rewrites.selector", "plan_rewrites"),),
     _EXTRACTION),
    ("interp", (("repro.interp.interpreter", "Interpreter.run"),),
     _PER_QUERY),
    ("sqlparse", (("repro.sqlparse.parser", "parse_query"),),
     _PER_QUERY),
    ("db.connection", (("repro.db.connection", "Connection.execute_query"),),
     _PER_QUERY),
    ("db.explain", (("repro.db.physical", "explain_plan"),),
     _PER_QUERY),
    ("db.planner", (("repro.db.engine", "Database.plan"),),
     "as_written (literal-SQL plan-cache misses) and refresh"),
    ("db.execute", (("repro.db.engine", "Database.execute_explained"),),
     "ops_per_s, op_p99_ms on pushed_down"),
    ("db.write", (("repro.db.engine", "Database.insert"),
                  ("repro.db.engine", "Database.insert_many"),
                  ("repro.db.engine", "Database.clear")),
     _WRITES),
    ("db.stats", (("repro.db.engine", "Database.stats"),),
     _WRITES),
    ("db.columns", (("repro.db.engine", "Database.columns"),),
     _WRITES),
    ("db.index", (("repro.db.engine", "Database.index_on"),),
     _WRITES),
)

LAYER_NAMES = tuple(name for name, _, _ in LAYERS)

#: Span name of the harness's own per-op root span.
OP = "op"


def _uses_columnar(explain: dict | None) -> bool:
    if not explain:
        return False
    return explain["op"].startswith("Columnar") or any(
        _uses_columnar(child) for child in explain["children"]
    )


def _count_execution(tracer: "Tracer", result) -> None:
    tracer.counters["executions"] += 1
    if _uses_columnar(result[1]):
        tracer.counters["columnar_executions"] += 1


def _count_rules(tracer: "Tracer", result) -> None:
    tracer.counters["rules_fired"] += len(result[1])


#: Counters read from a call's return value, at the call's boundary.
_POST = {
    ("repro.db.engine", "Database.execute_explained"): _count_execution,
    ("repro.rules.engine", "RuleEngine.transform"): _count_rules,
}


class Tracer:
    """Records spans for :data:`LAYERS` while installed.

    ``spans`` holds ``[name, start_ns, end_ns, parent, op_id]`` lists;
    ``parent`` is an index into ``spans`` (``-1`` for a root).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = {"executions": 0, "columnar_executions": 0, "rules_fired": 0}
        self._stack: list[int] = []
        self._op_id = -1
        #: (owner, attribute, original) for every binding replaced.
        self._patches: list[tuple[object, str, object]] = []
        #: wrapper → original, to undo bindings copied while installed.
        self._originals: dict[object, object] = {}

    # -- op root spans ---------------------------------------------------

    def start_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append([OP, time.perf_counter_ns(), 0, -1, op_id])

    def finish_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _repro_modules()
        for layer, targets, _ in LAYERS:
            for module_name, qualname in targets:
                post = _POST.get((module_name, qualname))
                module = importlib.import_module(module_name)
                if "." in qualname:
                    class_name, attr = qualname.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, original, self._wrap(layer, original, post))
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(layer, original, post)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        # A module first imported while the tracer was installed copied a
        # wrapper into its namespace; give it the original too.
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(module, attr, original)
        self._patches.clear()
        self._originals.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        self._originals[id(wrapper)] = original

    def _wrap(self, layer: str, fn, post):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [layer, 0, 0, stack[-1] if stack else -1, tracer._op_id]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post is not None:
                post(tracer, result)
            return result

        return traced


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (_, start, end, _, _), covered in zip(spans, children):
        busy = 0
        cursor = start
        for child_start, child_end in sorted(covered):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                busy += child_end - child_start
                cursor = child_end
        result.append(end - start - busy)
    return result


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """``<layer>.calls``, ``<layer>.self_ms`` (both per op) and
    ``<layer>.share`` (of all op wall time) for every layer."""
    selfs = self_times(spans)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    self_ns = dict.fromkeys(LAYER_NAMES, 0)
    op_ns = 0
    for span, own in zip(spans, selfs):
        name = span[0]
        if name == OP:
            op_ns += span[2] - span[1]
        elif name in calls:
            calls[name] += 1
            self_ns[name] += own
    metrics = {}
    for name in LAYER_NAMES:
        metrics[f"{name}.calls"] = calls[name] / ops
        metrics[f"{name}.self_ms"] = self_ns[name] / ops / 1e6
        metrics[f"{name}.share"] = self_ns[name] / op_ns if op_ns else 0.0
    return metrics
