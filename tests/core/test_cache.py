"""Unit suite for the persistent decomposition cache (`repro.core.cache`).

The solve-level trust model (hits re-certified, poison re-solved) lives in
``tests/core/test_solve.py``; this file pins down the storage layer itself:
keying, atomic writes, version/key validation, LRU eviction, quarantine,
maintenance listings and the ``resolve_cache`` entry-point policy.
"""

import json
import os
import time

import pytest

from repro.core.cache import (
    CACHE_ENV_VAR,
    CACHE_MAX_BYTES_ENV_VAR,
    CACHE_OFF_ENV_VAR,
    CACHE_VERSION,
    DEFAULT_MAX_BYTES,
    DecompositionCache,
    default_cache_dir,
    kind_hash,
    resolve_cache,
)

RECORD = {"width": 2, "decompositions": [{"bags": [[0, 1, 2]], "parents": [None]}]}


def cache_at(tmp_path, **kwargs):
    return DecompositionCache(str(tmp_path / "cache"), **kwargs)


class TestRoundTrip:
    def test_put_then_get(self, tmp_path):
        cache = cache_at(tmp_path)
        path = cache.put("f" * 64, "kind-a", RECORD)
        assert os.path.exists(path)
        record = cache.get("f" * 64, "kind-a")
        assert record["width"] == 2
        assert record["version"] == CACHE_VERSION
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 0,
            "stores": 1,
            "evictions": 0,
            "quarantined": 0,
            "rejected": 0,
        }

    def test_kinds_are_distinct_keys(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("f" * 64, "kind-a", RECORD)
        assert cache.get("f" * 64, "kind-b") is None
        assert cache.stats.misses == 1

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = cache_at(tmp_path)
        assert cache.get("0" * 64, "kind") is None
        assert cache.stats.misses == 1

    def test_no_stray_temp_files_after_put(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("f" * 64, "kind", RECORD)
        assert not [
            name for name in os.listdir(cache.directory) if ".tmp" in name
        ]


class TestValidation:
    def entry_path(self, cache):
        return cache.entry_path("f" * 64, "kind")

    def test_wrong_version_is_quarantined(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("f" * 64, "kind", RECORD)
        path = self.entry_path(cache)
        record = json.load(open(path))
        record["version"] = CACHE_VERSION + 1
        json.dump(record, open(path, "w"))
        assert cache.get("f" * 64, "kind") is None
        assert cache.stats.quarantined == 1
        assert cache.quarantined() == [path + ".corrupt"]

    def test_key_mismatch_is_quarantined(self, tmp_path):
        # A foreign file copied onto this key must not answer for it.
        cache = cache_at(tmp_path)
        cache.put("a" * 64, "kind", RECORD)
        foreign = cache.entry_path("a" * 64, "kind")
        os.rename(foreign, self.entry_path(cache))
        assert cache.get("f" * 64, "kind") is None
        assert cache.stats.quarantined == 1

    def test_unreadable_json_is_quarantined(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("f" * 64, "kind", RECORD)
        with open(self.entry_path(cache), "w") as handle:
            handle.write("{ truncated")
        assert cache.get("f" * 64, "kind") is None
        assert cache.stats.quarantined == 1

    def test_reject_quarantines_and_counts(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("f" * 64, "kind", RECORD)
        cache.reject("f" * 64, "kind", "failed certification")
        assert cache.stats.rejected == 1 and cache.stats.quarantined == 1
        assert cache.get("f" * 64, "kind") is None


class TestEviction:
    def test_lru_eviction_keeps_recently_used(self, tmp_path):
        cache = cache_at(tmp_path, max_bytes=1)  # every store overflows
        cache.put("a" * 64, "kind", RECORD)
        path_b = cache.put("b" * 64, "kind", RECORD)
        # The just-written entry is exempt from its own eviction pass.
        assert os.path.exists(path_b)
        assert cache.get("a" * 64, "kind") is None
        assert cache.stats.evictions == 1

    def test_touch_on_read_protects_hot_entries(self, tmp_path):
        cache = cache_at(tmp_path, max_bytes=DEFAULT_MAX_BYTES)
        path_a = cache.put("a" * 64, "kind", RECORD)
        path_b = cache.put("b" * 64, "kind", RECORD)
        old = time.time() - 3600
        os.utime(path_a, (old, old))
        os.utime(path_b, (old + 1, old + 1))
        cache.get("a" * 64, "kind")  # touches a: now newer than b
        cache.max_bytes = os.path.getsize(path_a)
        cache._evict()
        assert os.path.exists(path_a) and not os.path.exists(path_b)


class TestMaintenance:
    def test_entries_reports_readable_and_unreadable(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("a" * 64, "kind-a", RECORD)
        bad = os.path.join(cache.directory, "zz-bad.json")
        with open(bad, "w") as handle:
            handle.write("garbage")
        infos = {info.path: info for info in cache.entries()}
        assert len(infos) == 2
        good = infos[cache.entry_path("a" * 64, "kind-a")]
        assert good.readable and not good.stale
        assert good.fingerprint == "a" * 64 and good.kind == "kind-a"
        assert good.width == 2 and good.decompositions == 1
        assert infos[bad].stale and not infos[bad].readable

    def test_clean_removes_entries_quarantine_and_temp(self, tmp_path):
        cache = cache_at(tmp_path)
        cache.put("a" * 64, "kind", RECORD)
        cache.put("b" * 64, "kind", RECORD)
        cache.reject("a" * 64, "kind", "poison")
        with open(os.path.join(cache.directory, "x.json.tmp123"), "w") as handle:
            handle.write("partial")
        assert cache.clean() == 3
        assert os.listdir(cache.directory) == []
        assert cache.clean() == 0  # idempotent, empty dir

    def test_size_bytes_sums_entry_files(self, tmp_path):
        cache = cache_at(tmp_path)
        assert cache.size_bytes() == 0
        path = cache.put("a" * 64, "kind", RECORD)
        assert cache.size_bytes() == os.path.getsize(path)

    def test_kind_hash_is_stable_and_short(self):
        assert kind_hash("kind") == kind_hash("kind")
        assert kind_hash("kind") != kind_hash("other")
        assert len(kind_hash("kind")) == 12


class TestResolvePolicy:
    def test_none_disables(self):
        assert resolve_cache(None) is None

    def test_suite_default_is_hermetic(self):
        # The repo-root conftest switches the default cache off for every
        # test, so nothing reaches a shared on-disk cache unasked.
        assert os.environ.get(CACHE_OFF_ENV_VAR)
        assert CACHE_ENV_VAR not in os.environ
        assert resolve_cache("auto") is None

    def test_instance_passes_through(self, tmp_path):
        cache = cache_at(tmp_path)
        assert resolve_cache(cache) is cache

    def test_auto_honors_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-cache"))
        monkeypatch.setenv(CACHE_OFF_ENV_VAR, "1")
        assert resolve_cache("auto") is None
        monkeypatch.delenv(CACHE_OFF_ENV_VAR)
        resolved = resolve_cache("auto")
        assert resolved is not None
        assert resolved.directory == str(tmp_path / "env-cache")

    def test_explicit_path_ignores_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_OFF_ENV_VAR, "1")
        resolved = resolve_cache(str(tmp_path / "explicit"))
        assert resolved is not None
        assert resolved.directory == str(tmp_path / "explicit")

    def test_default_dir_fallback(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert default_cache_dir() == os.path.join("workloads", ".ctd-cache")

    def test_max_bytes_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "12345")
        assert cache_at(tmp_path).max_bytes == 12345
        monkeypatch.setenv(CACHE_MAX_BYTES_ENV_VAR, "not-a-number")
        assert cache_at(tmp_path).max_bytes == DEFAULT_MAX_BYTES
