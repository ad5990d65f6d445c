"""Content-addressed cache: keys, persistence, invalidation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro import Catalog, ExtractOptions
from repro.batch import NullCache, ResultCache, cache_key

SOURCE = "f() { return 1; }"


def _catalog():
    return Catalog.from_dict({"t": {"columns": ["id"], "key": ["id"]}})


class TestCacheKey:
    def test_deterministic(self):
        a = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        b = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_importing_the_package_does_not_load_hashlib(self):
        # hashlib loads OpenSSL (~3.5 MB resident); only key computation
        # needs it, so it is imported there.
        probe = "import sys, repro; print('hashlib' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=env,
        )
        assert result.stdout.strip() == "False"

    def test_importing_the_package_does_not_load_multiprocessing(self):
        # multiprocessing pulls in pickle, socket and selectors (~1.2 MB
        # resident); only a ``jobs > 1`` pool needs it, so it is imported
        # there.
        modules = ("multiprocessing", "socket", "selectors", "pickle")
        probe = f"import sys, repro; print([m for m in {modules!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=env,
        )
        assert result.stdout.strip() == "[]"

    def test_source_edit_changes_key(self):
        base = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        assert cache_key(SOURCE + " ", "f", _catalog(), ExtractOptions()) != base

    def test_function_changes_key(self):
        base = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        assert cache_key(SOURCE, "g", _catalog(), ExtractOptions()) != base

    def test_schema_edit_changes_key(self):
        base = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        widened = Catalog.from_dict({"t": {"columns": ["id", "x"], "key": ["id"]}})
        assert cache_key(SOURCE, "f", widened, ExtractOptions()) != base

    def test_options_change_key(self):
        base = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        other = cache_key(
            SOURCE, "f", _catalog(), ExtractOptions(ordering_matters=False)
        )
        assert other != base


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        assert cache.get(key) is None
        cache.put(key, "a.mj", "f", {"status": "success"})
        assert cache.get(key) == {"status": "success"}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_persists_across_instances(self, tmp_path):
        key = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        ResultCache(tmp_path / "cache").put(key, "a.mj", "f", {"status": "success"})
        assert ResultCache(tmp_path / "cache").get(key) == {"status": "success"}

    def test_store_is_sharded_human_readable_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        cache.put(key, "a.mj", "f", {"status": "success"})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        assert path.is_file()
        payload = json.loads(path.read_text())
        assert payload["file"] == "a.mj"
        assert payload["function"] == "f"
        assert payload["result"] == {"status": "success"}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        cache.put(key, "a.mj", "f", {"status": "success"})
        (tmp_path / "cache" / key[:2] / f"{key}.json").write_text("{garbage")
        assert cache.get(key) is None

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key(SOURCE, "f", _catalog(), ExtractOptions())
        cache.put(key, "a.mj", "f", {"status": "success"})
        path = tmp_path / "cache" / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["format"] = -1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None


def test_null_cache_never_hits():
    cache = NullCache()
    cache.put("k", "a.mj", "f", {"status": "success"})
    assert cache.get("k") is None
    assert cache.hits == 0 and cache.stores == 0
