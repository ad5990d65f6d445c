"""Directory-level linting: discovery → cache probe → pool → report.

Mirrors :func:`repro.batch.service.scan_directory` and reuses its
machinery: the same source discovery (:func:`repro.batch.discovery.plan_units`),
the same content-addressed JSON cache (keys carry a ``"kind": "lint"``
marker so lint and scan entries coexist in one ``.repro-cache``), and the
same serial-or-pool execution with order-preserving results.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..batch.cache import (
    CACHE_DIR_NAME,
    CACHE_FORMAT,
    NullCache,
    ResultCache,
    sha256_hex,
)
from ..batch.discovery import WorkUnit, plan_units
from ..frontends import DEFAULT_FRONTEND, get_frontend
from .diagnostics import Severity
from .engine import lint_function

#: Bump when the lint payload layout changes; old entries become misses.
#: 2: the frontend name joined the key (see ``repro.batch.cache``).
#: 3: precision-layer downgrades changed diagnostic severities and the
#: preprocessed view diagnostics anchor to.
LINT_CACHE_FORMAT = 3


def lint_cache_key(
    source: str, function: str, *, frontend: str = DEFAULT_FRONTEND
) -> str:
    """SHA-256 over everything that determines a lint result."""
    payload = json.dumps(
        {
            "kind": "lint",
            "format": CACHE_FORMAT,
            "lint_format": LINT_CACHE_FORMAT,
            "source": source,
            "function": function,
            "frontend": frontend,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return sha256_hex(payload)


def lint_unit(unit: WorkUnit) -> dict:
    """Lint one (file, function) unit; never raises.

    The unit's frontend parses the source; the lint passes themselves run
    on the shared AST and are language-agnostic.
    """
    start = time.perf_counter()
    try:
        program = get_frontend(unit.frontend).parse(unit.source)
        diagnostics = [d.to_dict() for d in lint_function(program, unit.function)]
        result = {"function": unit.function, "diagnostics": diagnostics}
    except Exception as exc:
        result = {
            "function": unit.function,
            "diagnostics": [],
            "error": f"{type(exc).__name__}: {exc}",
        }
    result["file"] = unit.path
    result["frontend"] = unit.frontend
    result["duration_ms"] = (time.perf_counter() - start) * 1000.0
    return result


def _run_lint_units(units: list[WorkUnit], jobs: int) -> list[dict]:
    if jobs <= 1 or len(units) <= 1:
        return [lint_unit(unit) for unit in units]
    processes = min(jobs, len(units))
    with multiprocessing.Pool(processes=processes) as pool:
        return pool.map(
            lint_unit, units, chunksize=max(1, len(units) // (processes * 4))
        )


@dataclass
class LintScanReport:
    """Aggregate result of linting a directory."""

    root: str
    units: list[dict] = field(default_factory=list)
    parse_errors: dict[str, str] = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    jobs: int = 1
    cache_dir: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    timings_ms: dict[str, float] = field(default_factory=dict)

    def all_diagnostics(self) -> list[tuple[str, dict]]:
        """(file path, diagnostic dict) pairs in report order."""
        pairs = []
        for unit in self.units:
            for diag in unit.get("diagnostics", []):
                pairs.append((unit["file"], diag))
        return pairs

    def counts(self) -> dict[str, int]:
        result = {str(s): 0 for s in Severity}
        for _path, diag in self.all_diagnostics():
            result[diag["severity"]] = result.get(diag["severity"], 0) + 1
        return result

    @property
    def max_severity(self) -> Severity | None:
        severities = [
            Severity.parse(diag["severity"]) for _p, diag in self.all_diagnostics()
        ]
        return max(severities) if severities else None

    def exceeds(self, threshold: Severity | None) -> bool:
        """True when any finding is at or above ``threshold`` (None: never)."""
        if threshold is None:
            return False
        worst = self.max_severity
        return worst is not None and worst >= threshold

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "files": list(self.files),
            "jobs": self.jobs,
            "counts": self.counts(),
            "units": list(self.units),
            "parse_errors": dict(self.parse_errors),
            "cache": {
                "dir": self.cache_dir,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stores": self.cache_stores,
            },
            "timings_ms": dict(self.timings_ms),
        }

    def render_text(self) -> str:
        lines = []
        for path, diag in self.all_diagnostics():
            span = diag.get("span", {})
            where = f"{path}:{span.get('line', 0)}:{span.get('col', 0)}"
            func = f" [{diag.get('function', '')}]" if diag.get("function") else ""
            lines.append(
                f"{where}: {diag['severity']} {diag['code']} {diag['message']}{func}"
            )
        for path, error in sorted(self.parse_errors.items()):
            lines.append(f"{path}: parse error: {error}")
        counts = self.counts()
        summary = ", ".join(
            f"{counts[str(s)]} {s}" for s in sorted(Severity, reverse=True)
        )
        lines.append(
            f"{len(self.units)} unit(s) in {len(self.files)} file(s): {summary}"
        )
        return "\n".join(lines)


def lint_directory(
    root: Path | str,
    jobs: int = 1,
    cache_dir: Path | str | None = None,
    use_cache: bool = True,
    frontend: str | None = None,
) -> LintScanReport:
    """Lint every function in every source file under ``root``.

    Files are matched and parsed by the registered language frontends
    (suffix auto-detection); ``frontend`` restricts the run to one
    frontend's files.
    """
    start = time.perf_counter()
    discovery = plan_units(root, frontend)
    discover_ms = (time.perf_counter() - start) * 1000.0

    if not use_cache:
        cache: ResultCache | NullCache = NullCache()
    else:
        root_path = Path(root)
        base = root_path if root_path.is_dir() else root_path.parent
        cache = ResultCache(
            cache_dir if cache_dir is not None else base / CACHE_DIR_NAME
        )

    keys = [
        lint_cache_key(unit.source, unit.function, frontend=unit.frontend)
        for unit in discovery.units
    ]
    results: list[dict | None] = []
    pending: list[int] = []
    for index, key in enumerate(keys):
        hit = cache.get(key)
        if hit is not None:
            hit = dict(hit)
            hit["cached"] = True
            results.append(hit)
        else:
            results.append(None)
            pending.append(index)

    lint_start = time.perf_counter()
    fresh = _run_lint_units([discovery.units[i] for i in pending], jobs)
    lint_ms = (time.perf_counter() - lint_start) * 1000.0

    for index, result in zip(pending, fresh):
        unit = discovery.units[index]
        cache.put(keys[index], unit.path, unit.function, result)
        result = dict(result)
        result["cached"] = False
        results[index] = result

    return LintScanReport(
        root=str(root),
        units=[r for r in results if r is not None],
        parse_errors=dict(discovery.errors),
        files=list(discovery.files),
        jobs=jobs,
        cache_dir=str(cache.directory) if cache.directory is not None else None,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_stores=cache.stores,
        timings_ms={
            "discover": discover_ms,
            "lint": lint_ms,
            "total": (time.perf_counter() - start) * 1000.0,
        },
    )
