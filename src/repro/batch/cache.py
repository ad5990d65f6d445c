"""Content-addressed result cache.

The key is the SHA-256 of everything that determines a unit's result:
source text, function name, catalog spec, extraction options, and the
frontend that parses the source (plus a format version so stale entries
from older layouts self-invalidate).
Editing a file, the schema, or the options therefore changes the key —
warm re-scans skip extraction for everything else.

The store is plain JSON files under ``.repro-cache/``, sharded by the
first two hex digits of the key (``.repro-cache/ab/abcdef....json``), so
a human can inspect any entry and ``rm -rf`` is the only eviction tool
needed.  Writes are atomic (temp file + ``os.replace``), so concurrent
scans never observe half-written entries; corrupt or foreign files are
treated as misses and overwritten, as is an entry whose ``"result"`` is
not a JSON object.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..algebra import Catalog
from ..core import ExtractOptions
from ..frontends import DEFAULT_FRONTEND

#: Bump when the cached payload layout changes; old entries become misses.
#: 2: the frontend name joined the key — identical source text means
#: different things to different language frontends, so it must never
#: collide across them.
#: 3: the SSA precision layer changed what extraction produces for the
#: same source (constant folding, dead-branch pruning, points-to-downgraded
#: blockers), so pre-precision entries must not be replayed.
CACHE_FORMAT = 3

#: Default cache directory name, created under the scan root.
CACHE_DIR_NAME = ".repro-cache"


def cache_key(
    source: str,
    function: str,
    catalog: Catalog,
    options: ExtractOptions,
    *,
    frontend: str = DEFAULT_FRONTEND,
) -> str:
    """SHA-256 over the canonical JSON of all result-determining inputs."""
    return payload_key(
        {
            "format": CACHE_FORMAT,
            "source": source,
            "function": function,
            "catalog": catalog.to_dict(),
            "options": options.to_dict(),
            "frontend": frontend,
        }
    )


def payload_key(payload: dict) -> str:
    """Hex SHA-256 of ``payload``'s canonical JSON (sorted keys, no spaces)."""
    # Imported here: hashlib loads OpenSSL (~3.5 MB resident), which only
    # cache keys need, not every importer of the package.
    import hashlib

    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """JSON-file cache with hit/miss/store counters."""

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached result dict, or ``None`` (and a counted miss)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != CACHE_FORMAT
            or not isinstance(payload.get("result"), dict)
        ):
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, key: str, unit_path: str, function: str, result: dict) -> None:
        """Store one unit result atomically; an unwritable store raises
        :class:`OSError` naming the cache directory."""
        path = self._path(key)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "file": unit_path,
            "function": function,
            "result": result,
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload, indent=2) + "\n")
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(f"cannot write the result cache in {self.directory}: {exc}") from exc
        self.stores += 1


class NullCache:
    """Cache-off stand-in: every lookup misses, stores are dropped."""

    directory = None

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, key: str) -> None:
        self.misses += 1
        return None

    def put(self, key: str, unit_path: str, function: str, result: dict) -> None:
        pass
