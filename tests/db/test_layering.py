"""Layering: the database engine does not depend on the interpreter.

``repro.interp`` runs programs against ``repro.db``; the reverse import
would put the interpreter on the engine's per-row path (an import inside a
scalar function runs once per row).  Checked statically on the source, so
an import inside a function body counts too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.db

DB_DIR = Path(repro.db.__file__).resolve().parent


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports, at any depth."""
    package = ["repro", "db"]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_db_never_imports_the_interpreter():
    offenders = {
        path.name: sorted(
            name for name in _imported_modules(path)
            if name == "repro.interp" or name.startswith("repro.interp.")
        )
        for path in sorted(DB_DIR.glob("*.py"))
    }
    assert {name: mods for name, mods in offenders.items() if mods} == {}
