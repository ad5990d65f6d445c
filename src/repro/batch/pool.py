"""Work-unit execution: serial, or fanned out over a process pool.

Extraction and linting are pure CPU, so threads would serialize on the
GIL; ``multiprocessing`` gives real scaling.  The unit function and its
context (a scan's catalog and options) are shipped once per worker
through the pool initializer rather than once per unit, and workers
return plain dicts so nothing AST-shaped crosses the process boundary.

``pool.map`` preserves submission order, and each unit's result depends
only on the unit and the context — a parallel run is bit-identical to a
serial one apart from timing fields.
"""

from __future__ import annotations

import time
from typing import Callable

from ..algebra import Catalog
from ..core import ExtractOptions, extract_sql
from .discovery import WorkUnit

#: Per-worker process state, set once by :func:`_init_worker`.
_WORKER_STATE: dict = {}


def extract_unit(unit: WorkUnit, catalog: Catalog, options: ExtractOptions) -> dict:
    """Run extraction for one unit; never raises.

    Any crash inside the pipeline is converted into a ``failed`` result
    carrying the exception, so one pathological file cannot take down a
    repo-wide scan (or a worker process).
    """
    start = time.perf_counter()
    if options.frontend != unit.frontend:
        options = options.replace(frontend=unit.frontend)
    try:
        result = extract_sql(unit.source, unit.function, catalog, options=options).to_dict()
    except Exception as exc:
        result = {
            "function": unit.function,
            "status": "failed",
            "error": f"{type(exc).__name__}: {exc}",
            "variables": {},
            "rewritten_loops": [],
            "consolidations": [],
            "rewritten": None,
            "frontend": unit.frontend,
        }
    result["file"] = unit.path
    result["duration_ms"] = (time.perf_counter() - start) * 1000.0
    return result


def _init_worker(unit_fn: Callable[..., dict], context: tuple) -> None:
    _WORKER_STATE["unit_fn"] = unit_fn
    _WORKER_STATE["context"] = context


def _run_one(unit: WorkUnit) -> dict:
    return _WORKER_STATE["unit_fn"](unit, *_WORKER_STATE["context"])


def run_units(
    units: list[WorkUnit],
    *context,
    jobs: int = 1,
    unit_fn: Callable[..., dict] = extract_unit,
) -> list[dict]:
    """``unit_fn(unit, *context)`` for every unit, in submission order.

    ``run_units(units, catalog, options)`` extracts; ``jobs > 1`` fans the
    units out over that many worker processes.
    """
    if jobs <= 1 or len(units) <= 1:
        return [unit_fn(unit, *context) for unit in units]
    import multiprocessing  # loads pickle and socket: only a pool needs them

    processes = min(jobs, len(units))
    with multiprocessing.Pool(
        processes=processes,
        initializer=_init_worker,
        initargs=(unit_fn, context),
    ) as pool:
        return pool.map(_run_one, units, chunksize=max(1, len(units) // (processes * 4)))
