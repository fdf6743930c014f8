"""Artifact integrity end to end: digests, structural validation,
stale formats, scrubbing, quarantine, and serve-time degrade.

The invariant all of these defend: corrupt bytes cost latency (a
quarantine move plus a cold re-analysis), never a wrong answer.
"""

from __future__ import annotations

import errno
import struct

import pytest

from repro import AnalyzeOptions, analyze
from repro.artifact import (
    ARTIFACT_FORMAT,
    ArtifactDigestError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactView,
    content_key,
    encode_artifact,
)
from repro.artifact.format import (
    _FILE_CRC_OFFSET,
    _file_crc,
    pack_sections,
    parse_sections,
)
from repro.server.cache import AnalysisCache, CacheEntry, cache_key
from repro.server.faults import (
    FaultPlan,
    stale_artifact_meta,
)
from repro.server.store import DiskStore
from repro.slicing.flatslice import flat_slicer
from tests.conftest import make_server

SMALL = 'class Main { static void main(String[] args) { print("a"); } }'
OTHER = 'class Main { static void main(String[] args) { print("b"); } }'
THIRD = 'class Main { static void main(String[] args) { print("c"); } }'
FLOWING = """class Main {
  static void main(String[] args) {
    int a = 1;
    int b = a + 1;
    if (b > 1) {
      print(b);
    }
  }
}
"""
OPTIONS = AnalyzeOptions(include_stdlib=False)


def make_payload(source: str = SMALL) -> tuple[str, bytes]:
    """``(key, artifact bytes)`` for one tiny analysis."""
    key = content_key(source, OPTIONS)
    analyzed = analyze(source, "<test>", options=OPTIONS)
    return key, encode_artifact(analyzed, key=key)


def repack_with(payload: bytes, tag: bytes, data: bytes) -> bytes:
    """Re-pack ``payload`` with one section replaced.

    ``pack_sections`` recomputes every digest, so the result is a
    *digest-valid* artifact whose content is wrong — exactly what
    structural validation (not checksums) must catch.
    """
    sections = []
    for name, (offset, length) in parse_sections(payload).items():
        body = payload[offset : offset + length]
        sections.append((name, data if name == tag else bytes(body)))
    return pack_sections(sections)


def restamp_format(payload: bytes, fmt: int) -> bytes:
    """``payload`` with header format ``fmt`` and a matching file crc:
    an intact file from another layout version."""
    blob = bytearray(payload)
    struct.pack_into("<I", blob, 8, fmt)
    struct.pack_into("<I", blob, _FILE_CRC_OFFSET, _file_crc(blob))
    return bytes(blob)


class TestDigestRejection:
    def test_fresh_encode_passes_deep_verify(self):
        _, payload = make_payload()
        view = ArtifactView.from_buffer(payload, verify="deep")
        assert view.node_count > 0

    def test_bit_flip_caught_by_header_verify(self):
        _, payload = make_payload()
        blob = bytearray(payload)
        blob[len(blob) // 2] ^= 0x10
        with pytest.raises(ArtifactDigestError):
            ArtifactView.from_buffer(bytes(blob), verify="header")

    def test_truncation_rejected(self):
        _, payload = make_payload()
        with pytest.raises(ArtifactError):
            ArtifactView.from_buffer(payload[: len(payload) // 3], verify="header")

    def test_section_digest_catches_flip_that_header_misses(self):
        # Patch the whole-file crc so the header level passes, proving
        # the per-section digests are a second, independent layer.
        _, payload = make_payload()
        blob = bytearray(payload)
        blob[len(blob) // 2] ^= 0x10
        struct.pack_into("<I", blob, _FILE_CRC_OFFSET, _file_crc(blob))
        blob = bytes(blob)
        assert ArtifactView.from_buffer(blob, verify="header").node_count > 0
        with pytest.raises(ArtifactDigestError):
            ArtifactView.from_buffer(blob, verify="deep")

    def test_structure_check_catches_digest_valid_garbage(self):
        # Valid digests over out-of-range edge targets: only the deep
        # level's structural bounds walk can refuse these bytes.
        _, payload = make_payload()
        spans = parse_sections(payload)
        bad = repack_with(payload, b"ETGT", b"\xff" * spans[b"ETGT"][1])
        assert ArtifactView.from_buffer(bad, verify="header").node_count > 0
        with pytest.raises(ArtifactError):
            ArtifactView.from_buffer(bad, verify="deep")

    def test_future_format_raises_format_error(self):
        _, payload = make_payload()
        blob = bytearray(payload)
        struct.pack_into("<I", blob, 8, ARTIFACT_FORMAT + 1)
        with pytest.raises(ArtifactFormatError) as info:
            ArtifactView.from_buffer(bytes(blob), verify="none")
        assert info.value.found == ARTIFACT_FORMAT + 1


#: Formats other than the current one: the two pre-release layouts
#: and a future one.  All of them are merely stale.
OTHER_FORMATS = [1, 2, ARTIFACT_FORMAT + 1]


class TestStaleFormat:
    @pytest.mark.parametrize("fmt", OTHER_FORMATS)
    def test_other_format_discarded_by_load_view(self, tmp_path, fmt):
        key, payload = make_payload()
        store = DiskStore(tmp_path)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(restamp_format(payload, fmt))

        assert store.load_view(key) is None
        assert store.stats.discarded == 1
        assert store.stats.corrupt_found == store.stats.quarantined == 0
        assert not path.exists()
        assert not (store.corrupt_dir / path.name).exists()

    @pytest.mark.parametrize("fmt", OTHER_FORMATS)
    def test_other_format_discarded_by_scrub(self, tmp_path, fmt):
        key, payload = make_payload()
        store = DiskStore(tmp_path)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(restamp_format(payload, fmt))

        summary = store.scrub()
        assert (summary["clean"], summary["corrupt"], summary["stale"]) == (
            0,
            0,
            1,
        )
        assert store.stats.discarded == 1
        assert store.stats.quarantined == 0
        assert not path.exists()

    def test_other_format_recomputed_by_cache(self, tmp_path):
        key, payload = make_payload()
        store = DiskStore(tmp_path)
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(restamp_format(payload, ARTIFACT_FORMAT - 1))

        cache = AnalysisCache(store=store)
        _entry, origin = cache.get_entry(SMALL, "<test>", OPTIONS)
        assert origin == "analyzed"
        assert store.stats.discarded == 1
        assert store.stats.quarantined == 0
        # The recomputed artifact replaced the stale file in place.
        assert struct.unpack_from("<I", path.read_bytes(), 8)[0] == (
            ARTIFACT_FORMAT
        )
        assert AnalysisCache(store=store).get_entry(
            SMALL, "<test>", OPTIONS
        )[1] == "disk"


class TestScrub:
    def seed_store(self, tmp_path) -> tuple[DiskStore, AnalysisCache]:
        store = DiskStore(tmp_path)
        cache = AnalysisCache(store=store)
        for source in (SMALL, OTHER, THIRD):
            cache.get_entry(source, "a.mj", OPTIONS)
        return store, cache

    def test_scrub_clean_store(self, tmp_path):
        store, _ = self.seed_store(tmp_path)
        summary = store.scrub()
        assert summary["clean"] == 3
        assert summary["corrupt"] == summary["stale"] == 0
        assert store.stats.scrubs == 1 and store.stats.scrubbed == 3
        assert store.last_scrub is summary

    def test_scrub_quarantines_corrupt_discards_stale(self, tmp_path):
        store, _ = self.seed_store(tmp_path)
        corrupt_path = store.path_for(cache_key(SMALL, OPTIONS))
        blob = bytearray(corrupt_path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        corrupt_path.write_bytes(bytes(blob))
        stale_path = store.path_for(cache_key(OTHER, OPTIONS))
        stale_artifact_meta(stale_path)

        summary = store.scrub()
        assert summary == {
            "at": summary["at"],
            "clean": 1,
            "corrupt": 1,
            "stale": 1,
        }
        # Corrupt bytes are evidence and move to corrupt/ with a reason.
        quarantined = store.corrupt_dir / corrupt_path.name
        assert quarantined.exists()
        assert "scrub" in quarantined.with_suffix(".art.reason").read_text()
        # Stale bytes are legitimate-but-unwanted and just disappear.
        assert not stale_path.exists()
        assert not (store.corrupt_dir / stale_path.name).exists()
        assert store.stats.quarantined == 1
        assert store.stats.discarded == 1

    def test_scrub_skips_already_quarantined_files(self, tmp_path):
        store, _ = self.seed_store(tmp_path)
        path = store.path_for(cache_key(SMALL, OPTIONS))
        path.write_bytes(b"garbage that is not an artifact")
        first = store.scrub()
        assert first["corrupt"] == 1
        second = store.scrub()
        assert second["corrupt"] == 0
        assert store.stats.quarantined == 1

    def test_quarantine_trims_to_cap(self, tmp_path):
        store = DiskStore(tmp_path, quarantine_max_files=2)
        sub = store.root / "ab"
        sub.mkdir()
        for index in range(4):
            bad = sub / f"{index:064x}.art"
            bad.write_bytes(b"junk")
            store._quarantine(bad, "test")
        survivors = list(store.corrupt_dir.glob("*.art"))
        assert len(survivors) == 2


class TestReadFailureQuarantine:
    def test_transient_read_errors_quarantine_after_limit(
        self, tmp_path, monkeypatch
    ):
        store = DiskStore(tmp_path, read_failure_limit=3)
        cache = AnalysisCache(store=store)
        cache.get_entry(SMALL, "a.mj", OPTIONS)
        key = cache_key(SMALL, OPTIONS)
        path = store.path_for(key)

        real_open = ArtifactView.open
        monkeypatch.setattr(
            ArtifactView,
            "open",
            staticmethod(
                lambda *a, **k: (_ for _ in ()).throw(
                    OSError(errno.EIO, "Input/output error")
                )
            ),
        )
        # Two failures: counted as misses, the file stays in place.
        assert store.load_view(key) is None
        assert store.load_view(key) is None
        assert store.stats.quarantined == 0 and path.exists()
        # The third consecutive failure crosses the limit: quarantined.
        assert store.load_view(key) is None
        assert store.stats.quarantined == 1
        assert store.stats.corrupt_found == 1
        assert (store.corrupt_dir / path.name).exists()
        assert not path.exists()

        # After recomputation (a fresh cache — the old one still holds
        # the entry in memory) the store heals and the counter resets.
        monkeypatch.setattr(ArtifactView, "open", staticmethod(real_open))
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        assert store.load_view(key) is not None
        assert store._read_failures == {}


class TestLiveViewsOutliveEviction:
    """Satellite regression: unlink/replace never break a served view.

    POSIX keeps an inode alive while it is mapped, so both prune()
    unlinks and quarantine moves are safe under the in-memory LRU.
    """

    def test_lru_view_survives_prune_unlink(self, tmp_path):
        store = DiskStore(tmp_path)
        cache = AnalysisCache(store=store)
        cache.get_entry(SMALL, "a.mj", OPTIONS)
        key = cache_key(SMALL, OPTIONS)

        restarted = AnalysisCache(store=DiskStore(tmp_path))
        entry, origin = restarted.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "disk" and entry.view is not None
        before = flat_slicer(entry.view, "thin").slice_from_line(1).traversal.order

        remaining = restarted.store.prune(0)
        assert remaining == 0
        assert not restarted.store.path_for(key).exists()
        # The unlinked-but-mapped view still serves identical answers.
        after = flat_slicer(entry.view, "thin").slice_from_line(1).traversal.order
        assert after == before
        assert entry.view.counts["sdg_statements"] > 0

    def test_lru_view_survives_quarantine_move(self, tmp_path):
        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        key = cache_key(SMALL, OPTIONS)
        view = store.load_view(key)
        assert view is not None
        before = view.counts
        store._quarantine(store.path_for(key), "test move under live map")
        assert view.counts == before
        view.close()


class TestFaultDials:
    def drill(self, tmp_path, plan: FaultPlan) -> DiskStore:
        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        store.fault_plan = plan
        return store

    def test_bit_flip_dial_quarantines_and_recomputes(self, tmp_path):
        store = self.drill(tmp_path, FaultPlan(bit_flips=1))
        key = cache_key(SMALL, OPTIONS)
        assert store.load_view(key) is None
        assert store.stats.quarantined == 1
        # The dial is one-shot; after recompute the store heals.
        cache = AnalysisCache(store=store)
        _entry, origin = cache.get_entry(SMALL, "a.mj", OPTIONS)
        assert origin == "analyzed"
        assert store.load_view(key) is not None

    def test_truncate_dial_quarantines(self, tmp_path):
        store = self.drill(tmp_path, FaultPlan(truncate_artifacts=1))
        assert store.load_view(cache_key(SMALL, OPTIONS)) is None
        assert store.stats.quarantined == 1
        assert store.stats.corrupt_found == 1

    def test_stale_meta_dial_discards_not_quarantines(self, tmp_path):
        # Every digest in a stale-meta rewrite is valid: the distinction
        # between "corrupt" (quarantine) and "stale" (discard) is load-
        # bearing, and this dial proves validation draws it correctly.
        store = self.drill(tmp_path, FaultPlan(stale_meta=1))
        assert store.load_view(cache_key(SMALL, OPTIONS)) is None
        assert store.stats.discarded == 1
        assert store.stats.quarantined == 0
        assert list(store.corrupt_dir.glob("*.art")) == []


class TestServeTimeDegrade:
    def rpc(self, server, method, **params):
        import json

        line = json.dumps({"id": 1, "method": method, "params": params})
        return json.loads(server.handle_line(line))

    #: Every query method walks edges of ``FLOWING`` (line 4 feeds
    #: line 6, which the ``if`` on line 5 governs), so each of them
    #: reads a poisoned ``ETGT`` entry.
    QUERIES = {
        "slice": {"line": 6},
        "explain": {"line": 6},
        "why": {"source_line": 4, "sink_line": 6},
        "chop": {"source_line": 4, "sink_line": 6},
    }

    @pytest.mark.parametrize("method", sorted(QUERIES))
    def test_mid_slice_corruption_degrades_to_recompute(self, tmp_path, method):
        store = DiskStore(tmp_path)
        server = make_server(AnalysisCache(store=store), executor="thread")
        params = dict(source=FLOWING, include_stdlib=False, **self.QUERIES[method])
        try:
            first = self.rpc(server, method, **params)
            assert first["ok"]
            truth = {k: v for k, v in first["result"].items() if k != "origin"}

            # Poison the in-memory entry with digest-valid bytes whose
            # edge targets are out of range: load-time verification
            # passes, the flat walk raises mid-query.  (Simulates
            # post-verification memory rot; cache_key is the daemon's.)
            key = cache_key(FLOWING, AnalyzeOptions(include_stdlib=False))
            path = store.path_for(key)
            payload = path.read_bytes()
            spans = parse_sections(payload)
            bad = repack_with(payload, b"ETGT", b"\xff" * spans[b"ETGT"][1])
            server.cache._entries[key] = CacheEntry(
                view=ArtifactView.from_buffer(bad, verify="none")
            )

            second = self.rpc(server, method, **params)
            assert second["ok"], second
            result = second["result"]
            assert {k: v for k, v in result.items() if k != "origin"} == truth
            assert result["origin"] == "analyzed"
            assert server.degraded_recomputes == 1
            # The on-disk copy was pulled for post-mortem and rewritten
            # clean by the recompute.
            assert (store.corrupt_dir / path.name).exists()
            assert path.exists()

            # Health surfaces both the degrade and the store counters.
            health = self.rpc(server, "health")["result"]
            assert health["degraded_recomputes"] == 1
            assert health["store"]["quarantined"] == 1
        finally:
            server.close()

    def test_scrub_timer_heals_rotted_store_in_background(self, tmp_path):
        import time

        store = DiskStore(tmp_path)
        AnalysisCache(store=store).get_entry(SMALL, "a.mj", OPTIONS)
        path = store.path_for(cache_key(SMALL, OPTIONS))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x10
        path.write_bytes(bytes(blob))

        server = make_server(
            AnalysisCache(store=store),
            executor="thread",
            scrub_interval_s=30.0,  # first pass runs immediately
        )
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if store.stats.quarantined:
                    break
                time.sleep(0.02)
            assert store.stats.quarantined == 1
            assert store.stats.scrubs >= 1
            assert (store.corrupt_dir / path.name).exists()
        finally:
            server.close()
