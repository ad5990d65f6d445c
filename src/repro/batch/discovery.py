"""Source discovery: frontend-recognized files under a directory → work units.

A *work unit* is one (file, function) pair: the scan granularity, the
cache granularity, and the parallelism granularity are all the same thing.
Which files count as sources is decided by the frontend registry
(:mod:`repro.frontends`): every registered frontend contributes its file
suffixes, and each discovered file is parsed by the frontend its suffix
maps to.  Files that fail to parse produce no units; they are reported as
file-level errors instead of aborting the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..frontends import (
    DEFAULT_FRONTEND,
    detect_frontend,
    get_frontend,
    source_suffixes,
)


@dataclass(frozen=True)
class WorkUnit:
    """One (file, function) extraction task.

    ``path`` is relative to the scan root (POSIX-style), so reports and
    cache payloads are stable across machines and checkouts.
    ``frontend`` names the registered frontend that parsed the file and
    must parse it again wherever the unit is executed.
    """

    path: str
    function: str
    source: str
    frontend: str = DEFAULT_FRONTEND


@dataclass
class Discovery:
    """Everything found under a scan root."""

    root: str
    files: list[str] = field(default_factory=list)
    units: list[WorkUnit] = field(default_factory=list)
    #: path → parse error message, for files no units could be planned from.
    errors: dict[str, str] = field(default_factory=dict)


def discover_sources(root: Path | str, frontend: str | None = None) -> list[Path]:
    """All source files under ``root``, sorted for determinism.

    By default every suffix claimed by a registered frontend is included;
    ``frontend`` restricts discovery to that one frontend's suffixes.
    Hidden directories (``.git``, ``.repro-cache``, ...) are skipped.
    A file path may also be given directly.
    """
    root = Path(root)
    if root.is_file():
        return [root]
    suffixes = tuple(
        source_suffixes() if frontend is None else get_frontend(frontend).suffixes
    )
    found = [
        path
        for path in root.rglob("*")
        if path.is_file()
        and path.suffix in suffixes
        and not any(part.startswith(".") for part in path.relative_to(root).parts)
    ]
    return sorted(found)


def plan_units(root: Path | str, frontend: str | None = None) -> Discovery:
    """Parse every discovered file and plan one unit per function.

    Each file is parsed by the frontend its suffix maps to (or by the
    forced ``frontend`` when given), and the frontend name is recorded on
    every unit.  Functions are planned in source order within a file;
    files in sorted path order — the unit list is therefore deterministic
    for a given tree.
    """
    root = Path(root)
    discovery = Discovery(root=str(root))
    for path in discover_sources(root, frontend):
        rel = (
            path.relative_to(root).as_posix() if not root.is_file() else path.name
        )
        discovery.files.append(rel)
        name = frontend if frontend is not None else detect_frontend(path)
        try:
            source = path.read_text()
            program = get_frontend(name).parse(source)
        except Exception as exc:  # parse/lex/io errors become per-file reports
            discovery.errors[rel] = f"{type(exc).__name__}: {exc}"
            continue
        for func in program.functions:
            discovery.units.append(
                WorkUnit(path=rel, function=func.name, source=source, frontend=name)
            )
    return discovery
