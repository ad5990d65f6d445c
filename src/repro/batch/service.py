"""The directory runner: discovery → cache probe → pool → report.

:func:`run_directory` is the one loop behind ``python -m repro scan`` and
``python -m repro lint``.  Only cache *misses* reach the worker pool;
results come back as plain dicts and are stored immediately, so an
interrupted run still warms the cache for everything it finished.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, TypeVar

from ..algebra import Catalog
from ..core import ExtractOptions
from .cache import CACHE_DIR_NAME, NullCache, ResultCache, cache_key
from .discovery import plan_units
from .pool import extract_unit, run_units
from .report import DirectoryReport, ScanReport

ReportT = TypeVar("ReportT", bound=DirectoryReport)


def run_directory(
    report_type: type[ReportT],
    unit_fn: Callable[..., dict],
    key_fn: Callable[..., str],
    context: tuple,
    root: Path | str,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    frontend: str | None = None,
) -> ReportT:
    """``unit_fn(unit, *context)`` for every function of every file under ``root``.

    A unit's cache key is ``key_fn(source, function, *context, frontend=...)``.
    ``jobs > 1`` fans cache misses out over a process pool, so ``unit_fn``
    and ``context`` must pickle.  ``frontend`` restricts the run to one
    frontend's files.  The cache defaults to ``<root>/.repro-cache``
    (``cache_dir`` overrides, ``use_cache=False`` disables).  Units come in
    sorted file order, functions in source order.
    """
    start = time.perf_counter()
    discovery = plan_units(root, frontend)
    discover_ms = (time.perf_counter() - start) * 1000.0

    if cache_dir is None:
        root_path = Path(root)
        cache_dir = (root_path if root_path.is_dir() else root_path.parent) / CACHE_DIR_NAME
    cache = ResultCache(cache_dir) if use_cache else NullCache()

    keys = [
        key_fn(unit.source, unit.function, *context, frontend=unit.frontend)
        for unit in discovery.units
    ]
    results = [cache.get(key) for key in keys]
    pending = [index for index, hit in enumerate(results) if hit is None]
    for hit in results:
        if hit is not None:
            hit["cached"] = True

    run_start = time.perf_counter()
    fresh = run_units(
        [discovery.units[i] for i in pending], *context, jobs=jobs, unit_fn=unit_fn
    )
    run_ms = (time.perf_counter() - run_start) * 1000.0

    for index, result in zip(pending, fresh):
        unit = discovery.units[index]
        cache.put(keys[index], unit.path, unit.function, result)
        result["cached"] = False
        results[index] = result

    return report_type(
        root=str(root),
        units=results,
        parse_errors=dict(discovery.errors),
        files=list(discovery.files),
        jobs=jobs,
        cache_dir=str(cache.directory) if cache.directory is not None else None,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_stores=cache.stores,
        timings_ms={
            "discover": discover_ms,
            report_type.PHASE: run_ms,
            "total": (time.perf_counter() - start) * 1000.0,
        },
    )


def scan_directory(
    root: Path | str,
    catalog: Catalog,
    options: ExtractOptions | None = None,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    frontend: str | None = None,
) -> ScanReport:
    """Extract SQL from every function under ``root`` (see :func:`run_directory`)."""
    options = options if options is not None else ExtractOptions()
    return run_directory(
        ScanReport, extract_unit, cache_key, (catalog, options),
        root, jobs, cache_dir, use_cache, frontend,
    )
