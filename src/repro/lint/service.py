"""Directory-level linting: the batch directory runner with a lint unit.

:func:`lint_directory` runs :func:`repro.batch.service.run_directory`
with :func:`lint_unit` and :func:`lint_cache_key` (keys carry a
``"kind": "lint"`` marker so lint and scan entries coexist in one
``.repro-cache``); this module adds only those and the lint report.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..batch.cache import CACHE_FORMAT, payload_key
from ..batch.discovery import WorkUnit
from ..batch.report import DirectoryReport
from ..batch.service import run_directory
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
    return payload_key(
        {
            "kind": "lint",
            "format": CACHE_FORMAT,
            "lint_format": LINT_CACHE_FORMAT,
            "source": source,
            "function": function,
            "frontend": frontend,
        }
    )


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


class LintScanReport(DirectoryReport):
    """Aggregate result of linting a directory."""

    PHASE = "lint"
    JSON_KEYS = (
        "root", "files", "jobs", "counts", "units", "parse_errors", "cache", "timings_ms",
    )

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

    @property
    def crashed(self) -> list[dict]:
        """Units whose lint passes raised (they carry an ``"error"``)."""
        return [unit for unit in self.units if unit.get("error")]

    def exit_code(self, threshold: Severity | None) -> int:
        """1 on a parse error, a crashed unit, or a finding at ``threshold``."""
        return 1 if self.parse_errors or self.crashed or self.exceeds(threshold) else 0

    def kind_fields(self) -> dict:
        return {"counts": self.counts()}

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
        for unit in self.crashed:
            lines.append(f"{unit['file']}::{unit['function']}: error: {unit['error']}")
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
    """Lint every function under ``root`` (see :func:`repro.batch.run_directory`)."""
    return run_directory(
        LintScanReport, lint_unit, lint_cache_key, (),
        root, jobs, cache_dir, use_cache, frontend,
    )
