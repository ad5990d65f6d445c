"""Run aggregation: per-unit outcomes rolled up into a :class:`DirectoryReport`.

The report is dict/JSON-centric because it crosses process boundaries and
feeds both the text renderer and ``--json``.  Timing fields
(``duration_ms``, ``timings_ms``, ``utilisation``) vary run to run; all
other fields are deterministic for a given tree + schema + options, which
is what the ``-j N`` vs. serial equivalence tests key on (see
:func:`stable_view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

#: Per-unit keys that vary between runs and must be ignored when comparing
#: scans for equivalence (e.g. parallel vs. serial).
VOLATILE_UNIT_KEYS = ("duration_ms", "extraction_time_ms", "cached")


@dataclass
class DirectoryReport:
    """Run-level record of one directory run; scan and lint reports add
    their counts, text and exit rules."""

    root: str
    units: list[dict] = field(default_factory=list)
    #: file → parse error, for sources no units could be planned from.
    parse_errors: dict[str, str] = field(default_factory=dict)
    files: list[str] = field(default_factory=list)
    jobs: int = 1
    cache_dir: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    #: phase → elapsed milliseconds: ``discover``, ``extract``/``lint``, ``total``.
    timings_ms: dict[str, float] = field(default_factory=dict)

    #: The compute phase's name in ``timings_ms``.
    PHASE: ClassVar[str]
    #: ``to_dict``'s top-level keys in output order, :meth:`kind_fields` included.
    JSON_KEYS: ClassVar[tuple[str, ...]]

    def kind_fields(self) -> dict:
        """The ``to_dict`` fields of one kind of run (its counts and so on)."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        fields = {
            "root": self.root,
            "jobs": self.jobs,
            "files": list(self.files),
            "units": list(self.units),
            "parse_errors": dict(self.parse_errors),
            "cache": {
                "dir": self.cache_dir,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stores": self.cache_stores,
            },
            "timings_ms": dict(self.timings_ms),
            **self.kind_fields(),
        }
        return {key: fields[key] for key in self.JSON_KEYS}


class ScanReport(DirectoryReport):
    """Aggregate outcome of one directory scan."""

    PHASE = "extract"
    JSON_KEYS = (
        "root", "jobs", "files", "units", "parse_errors", "counts", "cache",
        "timings_ms", "utilisation", "rewrites",
    )

    def count(self, status: str) -> int:
        return sum(1 for unit in self.units if unit.get("status") == status)

    @property
    def successes(self) -> int:
        return self.count("success")

    @property
    def capable(self) -> int:
        return self.count("capable")

    @property
    def failures(self) -> int:
        return self.count("failed")

    def rewrite_choices(self) -> dict[str, int]:
        """Chosen-alternative kinds aggregated across all units' sites.

        Empty when the scan ran without a deployment profile.
        """
        counts: dict[str, int] = {}
        for unit in self.units:
            rewrites = unit.get("rewrites") or {}
            for site in rewrites.get("sites", []):
                chosen = site.get("chosen")
                if chosen:
                    counts[chosen] = counts.get(chosen, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def rewrite_profile(self) -> str | None:
        for unit in self.units:
            rewrites = unit.get("rewrites") or {}
            if rewrites.get("profile"):
                return rewrites["profile"]
        return None

    @property
    def extracted(self) -> int:
        """Units that actually ran the pipeline (i.e. were not cache hits)."""
        return sum(1 for unit in self.units if not unit.get("cached"))

    @property
    def utilisation(self) -> float:
        """Worker busy-time over available worker-time during extraction.

        1.0 means every worker computed for the whole extract phase; low
        values reveal pool overhead or skewed unit sizes.  0.0 when nothing
        was extracted (fully warm scan).
        """
        wall = self.timings_ms.get("extract", 0.0)
        if wall <= 0.0:
            return 0.0
        busy = sum(
            unit.get("duration_ms", 0.0)
            for unit in self.units
            if not unit.get("cached")
        )
        return min(1.0, busy / (wall * max(1, self.jobs)))

    def kind_fields(self) -> dict:
        return {
            "counts": {
                "units": len(self.units),
                "success": self.successes,
                "capable": self.capable,
                "failed": self.failures,
                "parse_errors": len(self.parse_errors),
            },
            "utilisation": self.utilisation,
            "rewrites": {
                "profile": self.rewrite_profile,
                "chosen": self.rewrite_choices(),
            },
        }

    def render_text(self, verbose: bool = False) -> str:
        """Human-readable summary (the default ``scan`` output)."""
        lines = [f"scan {self.root}"]
        lines.append(
            f"  files: {len(self.files)}  units: {len(self.units)}  "
            f"(success {self.successes}, capable {self.capable}, "
            f"failed {self.failures})"
        )
        if self.parse_errors:
            lines.append(f"  parse errors: {len(self.parse_errors)}")
            for path, error in sorted(self.parse_errors.items()):
                lines.append(f"    {path}: {error}")
        lines.append(
            f"  cache: {self.cache_hits} hit(s), {self.cache_misses} miss(es)"
            + (f"  [{self.cache_dir}]" if self.cache_dir else "  [disabled]")
        )
        choices = self.rewrite_choices()
        if choices:
            summary = ", ".join(f"{kind}×{n}" for kind, n in choices.items())
            lines.append(
                f"  rewrites (profile {self.rewrite_profile!r}): {summary}"
            )
        total = self.timings_ms.get("total", 0.0)
        extract = self.timings_ms.get("extract", 0.0)
        lines.append(
            f"  time: {total:.1f} ms total ({extract:.1f} ms extracting, "
            f"-j {self.jobs}, {self.utilisation:.0%} worker utilisation)"
        )
        for unit in self.units:
            status = unit.get("status", "?")
            cached = " (cached)" if unit.get("cached") else ""
            lines.append(f"  {unit.get('file')}::{unit.get('function')}: {status}{cached}")
            if verbose:
                for name, extraction in (unit.get("variables") or {}).items():
                    sql = extraction.get("sql")
                    detail = sql if sql else extraction.get("reason", "")
                    lines.append(f"      {name}: {extraction.get('status')}  {detail}")
            if unit.get("error"):
                lines.append(f"      error: {unit['error']}")
        return "\n".join(lines)


def stable_view(report: DirectoryReport) -> dict:
    """The deterministic projection of a report.

    Strips timing- and cache-dependent fields so two scans of the same tree
    (serial vs. parallel, cold vs. warm) compare equal exactly when their
    extraction outcomes are identical.
    """
    data = report.to_dict()
    for key in ("timings_ms", "utilisation", "cache", "jobs"):
        data.pop(key, None)
    data["units"] = [
        {k: v for k, v in unit.items() if k not in VOLATILE_UNIT_KEYS}
        for unit in data["units"]
    ]
    return data
