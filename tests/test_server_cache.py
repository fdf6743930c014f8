"""Cache correctness: keying, the two tiers, and corruption tolerance."""

from __future__ import annotations

import struct

import pytest

from repro import AnalyzeOptions
from repro.artifact import ARTIFACT_FORMAT, MAGIC
from repro.parallel import analyze_artifact
from repro.server.cache import AnalysisCache, cache_key
from repro.server.store import DiskStore

SMALL = 'class Main { static void main(String[] args) { print("a"); } }'
OTHER = 'class Main { static void main(String[] args) { print("b"); } }'

# Tiny analyses: skip the stdlib so each test runs in milliseconds.
OPTIONS = AnalyzeOptions(include_stdlib=False)


class TestCacheKey:
    def test_same_source_same_options_same_key(self):
        assert cache_key(SMALL, OPTIONS) == cache_key(SMALL, OPTIONS)

    def test_key_ignores_filename(self):
        cache = AnalysisCache()
        cache.get_entry(SMALL, "a.mj", OPTIONS)
        _, origin = cache.get_entry(SMALL, "b.mj", OPTIONS)
        assert origin == "memory"

    def test_different_source_different_key(self):
        assert cache_key(SMALL, OPTIONS) != cache_key(OTHER, OPTIONS)

    def test_whitespace_change_is_different_content(self):
        assert cache_key(SMALL, OPTIONS) != cache_key(SMALL + "\n", OPTIONS)

    def test_options_distinguish_keys(self):
        variants = [
            AnalyzeOptions(include_stdlib=True),
            AnalyzeOptions(include_stdlib=False),
            AnalyzeOptions(include_stdlib=False, containers=None),
            AnalyzeOptions(include_stdlib=False, heap_mode="params"),
            AnalyzeOptions(include_stdlib=False, include_control=False),
        ]
        keys = {cache_key(SMALL, options) for options in variants}
        assert len(keys) == len(variants)


class TestMemoryTier:
    def test_identical_resubmission_hits(self):
        cache = AnalysisCache()
        first, origin1 = cache.get_entry(SMALL, "a.mj", OPTIONS)
        second, origin2 = cache.get_entry(SMALL, "a.mj", OPTIONS)
        assert (origin1, origin2) == ("analyzed", "memory")
        assert first is second
        assert cache.memory_hits == 1 and cache.misses == 1

    def test_same_source_different_options_misses(self):
        cache = AnalysisCache()
        cache.get_entry(SMALL, "a.mj", OPTIONS)
        _, origin = cache.get_entry(
            SMALL, "a.mj", AnalyzeOptions(include_stdlib=False, containers=None)
        )
        assert origin == "analyzed"
        assert cache.misses == 2 and cache.memory_hits == 0

    def test_lru_eviction(self):
        cache = AnalysisCache(capacity=1)
        cache.get_entry(SMALL, "a.mj", OPTIONS)
        cache.get_entry(OTHER, "b.mj", OPTIONS)
        assert cache.evictions == 1
        assert len(cache) == 1
        # The evicted entry is re-analyzed on the next request.
        _, origin = cache.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "analyzed"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AnalysisCache(capacity=0)


class TestDiskTier:
    def test_restart_loads_from_disk_without_reanalysis(self, tmp_path, monkeypatch):
        cache = AnalysisCache(store=DiskStore(tmp_path))
        cache.get_entry(SMALL, "a.mj", OPTIONS)
        # A fresh cache over the same store simulates a daemon restart.
        restarted = AnalysisCache(store=DiskStore(tmp_path))
        # Prove no re-analysis happens: the cold path must not be reachable.
        monkeypatch.setattr(
            "repro.server.cache.analyze_artifact",
            lambda *a, **k: pytest.fail("re-analyzed a stored artifact"),
        )
        entry, origin = restarted.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "disk"
        assert restarted.disk_hits == 1 and restarted.misses == 0
        assert entry.view.counts["sdg_statements"] > 0

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        AnalysisCache(store=DiskStore(tmp_path)).get_entry(
            SMALL, "a.mj", OPTIONS
        )
        restarted = AnalysisCache(store=DiskStore(tmp_path))
        _, first = restarted.get_entry(SMALL, "a.mj", OPTIONS)
        _, second = restarted.get_entry(SMALL, "a.mj", OPTIONS)
        assert (first, second) == ("disk", "memory")

    def test_corrupted_artifact_quarantined_and_recomputed(self, tmp_path):
        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        path = store.path_for(cache_key(SMALL, OPTIONS))
        path.write_bytes(b"\x80\x04 this is not an artifact")
        fresh_store = DiskStore(tmp_path)
        cache = AnalysisCache(store=fresh_store)
        entry, origin = cache.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "analyzed"
        # Corrupt bytes are evidence: moved to corrupt/, not unlinked.
        assert fresh_store.stats.quarantined == 1
        assert fresh_store.stats.corrupt_found == 1
        assert (fresh_store.corrupt_dir / path.name).exists()
        assert entry.view.counts["sdg_statements"] > 0
        # The bad file was replaced by a good artifact.
        again = AnalysisCache(store=DiskStore(tmp_path))
        _, origin = again.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "disk"

    def test_truncated_artifact_quarantined(self, tmp_path):
        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        path = store.path_for(cache_key(SMALL, OPTIONS))
        path.write_bytes(path.read_bytes()[: 100])
        fresh = DiskStore(tmp_path)
        assert fresh.load_view(cache_key(SMALL, OPTIONS)) is None
        assert not path.exists()
        assert fresh.stats.quarantined == 1
        assert (fresh.corrupt_dir / path.name).exists()

    def test_stale_format_version_discarded(self, tmp_path):
        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        key = cache_key(SMALL, OPTIONS)
        path = store.path_for(key)
        # Patch the u32 format field that follows the 8-byte magic, as
        # an artifact written by a future incompatible encoder would be.
        blob = bytearray(path.read_bytes())
        assert blob[: len(MAGIC)] == MAGIC
        struct.pack_into("<I", blob, len(MAGIC), ARTIFACT_FORMAT + 1)
        path.write_bytes(bytes(blob))
        fresh = DiskStore(tmp_path)
        assert fresh.load_view(key) is None
        assert fresh.stats.discarded == 1

    def test_key_mismatch_discarded(self, tmp_path):
        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        good = store.path_for(cache_key(SMALL, OPTIONS))
        other_key = cache_key(OTHER, OPTIONS)
        moved = store.path_for(other_key)
        moved.parent.mkdir(parents=True, exist_ok=True)
        moved.write_bytes(good.read_bytes())
        assert DiskStore(tmp_path).load_view(other_key) is None

    def test_missing_artifact_counts_as_miss(self, tmp_path):
        store = DiskStore(tmp_path)
        assert store.load_view("0" * 64) is None
        assert store.stats.misses == 1 and store.stats.discarded == 0

    def test_save_failure_is_nonfatal(self, tmp_path, monkeypatch):
        store = DiskStore(tmp_path)
        monkeypatch.setattr(
            "repro.server.store.os.fsync",
            lambda *a, **k: (_ for _ in ()).throw(OSError("disk full")),
        )
        cache = AnalysisCache(store=store)
        _, origin = cache.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "analyzed"
        assert store.stats.save_errors == 1


class TestLeftoverPickle:
    """A ``<key>.pkl`` left by a pre-release store is never read."""

    def test_leftover_pickle_is_ignored(self, tmp_path):
        key = cache_key(SMALL, OPTIONS)
        store = DiskStore(tmp_path)
        leftover = store.root / key[:2] / f"{key}.pkl"
        leftover.parent.mkdir(parents=True)
        leftover.write_bytes(b"\x80\x04 a pickle nobody may load")

        assert store.load_view(key) is None
        assert store.stats.misses == 1
        assert store.stats.discarded == store.stats.quarantined == 0
        cache = AnalysisCache(store=store)
        _, origin = cache.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "analyzed"
        # Untouched: not served, not migrated, not counted or pruned.
        assert leftover.exists()
        assert store.keys() == [key]
        store.prune(0)
        assert leftover.exists()


class TestPrune:
    @staticmethod
    def _fill(store, payload, count):
        """Save one artifact under ``count`` distinct keys with strictly
        increasing mtimes (so eviction order is deterministic)."""
        import os

        keys = [f"{i:02x}" + "0" * 62 for i in range(count)]
        for i, key in enumerate(keys):
            store.save_bytes(key, payload)
            path = store.path_for(key)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return keys

    def test_prune_evicts_oldest_first(self, tmp_path):
        store = DiskStore(tmp_path)
        payload, _ = analyze_artifact(SMALL, "a.mj", OPTIONS)
        keys = self._fill(store, payload, 4)
        blob_size = store.path_for(keys[0]).stat().st_size
        remaining = store.prune(2 * blob_size)
        assert remaining <= 2 * blob_size
        assert store.stats.evicted == 2
        assert not store.path_for(keys[0]).exists()
        assert not store.path_for(keys[1]).exists()
        assert store.path_for(keys[2]).exists()
        assert store.path_for(keys[3]).exists()

    def test_prune_noop_under_budget(self, tmp_path):
        store = DiskStore(tmp_path)
        payload, _ = analyze_artifact(SMALL, "a.mj", OPTIONS)
        self._fill(store, payload, 2)
        store.prune(10**12)
        assert store.stats.evicted == 0

    def test_save_enforces_size_budget(self, tmp_path):
        probe = DiskStore(tmp_path / "probe")
        payload, _ = analyze_artifact(SMALL, "a.mj", OPTIONS)
        probe.save_bytes("0" * 64, payload)
        blob_size = probe.path_for("0" * 64).stat().st_size

        store = DiskStore(tmp_path / "store", max_bytes=2 * blob_size)
        self._fill(store, payload, 5)
        kept = list((tmp_path / "store").glob("*/*.art"))
        assert len(kept) <= 2
        assert store.stats.evicted >= 3
        assert store.stats.saves == 5
