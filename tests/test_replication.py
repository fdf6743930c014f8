"""Crash-consistent warm state: replication, checkpoints, restarts.

PR 10's contract in four parts:

* **Ring replication** — every artifact a shard saves is copied to its
  successor holders, a local miss is served from a replica before any
  recompute, and an anti-entropy repair pass re-converges a peer that
  was down during fan-out.
* **Deadline propagation** — the router forwards the time *left*, a
  queued request whose deadline lapses is shed with a structured
  ``DeadlineExpired`` without consuming a worker.
* **Session checkpointing** — a fresh process pointed at the same
  store resumes a warm edit lineage from its sidecar instead of
  falling back to cold.
* **Rolling restart / hedging** — admin-driven drain-and-respawn and
  quantile-triggered request hedging, both riding the byte-identity
  guarantee.
"""

from __future__ import annotations

import json
import select
import socketserver
import sys
import threading
import time

import pytest

from repro import AnalyzeOptions
from repro.artifact.encode import content_key
from repro.server.cache import AnalysisCache
from repro.server.client import ServerError, SliceClient
from repro.server.daemon import start_tcp_server
from repro.server.faults import FaultPlan
from repro.incremental import split_units
from repro.server.fragments import FragmentStore
from repro.server.replication import (
    Replicator,
    decode_payload,
    encode_payload,
)
from repro.server.router import Router
from repro.server.shardpool import (
    RESPAWN_BACKOFF_CAP_S,
    RESPAWN_BACKOFF_S,
    ShardPool,
    _respawn_backoff,
)
from repro.server.store import DiskStore
from repro.suite.loader import load_source
from tests.conftest import make_server
from tests.test_router import Tier, route, seed_line


def rpc(server, method, request_id=1, **params):
    line = json.dumps({"id": request_id, "method": method, "params": params})
    return json.loads(server.handle_line(line))


@pytest.fixture()
def tier():
    t = Tier(shards=2)
    yield t
    t.close()


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# ----------------------------------------------------------------------
# Store hook
# ----------------------------------------------------------------------


class TestStoreHook:
    def test_on_save_fires_with_key_and_payload(self, tmp_path):
        store = DiskStore(tmp_path)
        seen = []
        store.on_save = lambda key, payload: seen.append((key, payload))
        options = AnalyzeOptions()
        source = load_source("figure1")
        key = content_key(source, options)
        from repro import analyze
        from repro.artifact.encode import encode_artifact

        payload = encode_artifact(analyze(source, options=options), key=key)
        store.save_bytes(key, payload)
        assert seen == [(key, payload)]
        # Received replica copies are saved with replicate=False and
        # must NOT re-trigger fan-out (no ring orbiting).
        store.save_bytes(key, payload, replicate=False)
        assert len(seen) == 1
        assert store.keys() == [key]

    def test_on_save_failure_never_breaks_the_save(self, tmp_path):
        store = DiskStore(tmp_path)

        def boom(key, payload):
            raise RuntimeError("replication tier down")

        store.on_save = boom
        options = AnalyzeOptions()
        source = load_source("figure1")
        key = content_key(source, options)
        from repro import analyze
        from repro.artifact.encode import encode_artifact

        payload = encode_artifact(analyze(source, options=options), key=key)
        store.save_bytes(key, payload)
        assert store.load_payload(key) == payload


# ----------------------------------------------------------------------
# Two-daemon replication
# ----------------------------------------------------------------------


class ReplicatedPair:
    """Two in-process daemons with private stores behind real TCP."""

    def __init__(self, tmp_path, factor=2, configure=True):
        self.servers = []
        self.stores = []
        self.addresses = []
        self.tcp = []
        for index in range(2):
            store = DiskStore(tmp_path / f"shard-{index}")
            server = make_server(AnalysisCache(store=store))
            tcp_server, thread = start_tcp_server(server)
            host, port = tcp_server.server_address[:2]
            self.servers.append(server)
            self.stores.append(store)
            self.tcp.append(tcp_server)
            self.addresses.append(f"{host}:{port}")
        if configure:
            self.configure(factor)

    def configure(self, factor=2):
        for index, address in enumerate(self.addresses):
            response = rpc(
                self.servers[index],
                "replicate_config",
                **{
                    "self_address": address,
                    "peers": self.addresses,
                    "factor": factor,
                },
            )
            assert response["ok"], response
            assert response["result"]["configured"] is True

    def close(self):
        for tcp_server in self.tcp:
            tcp_server.shutdown()
            tcp_server.server_close()
        for server in self.servers:
            server.close()


@pytest.fixture()
def pair(tmp_path):
    p = ReplicatedPair(tmp_path)
    yield p
    p.close()


class TestReplication:
    def test_write_fans_out_to_peer_store(self, pair):
        source = load_source("figure1")
        key = content_key(source, AnalyzeOptions())
        response = rpc(
            pair.servers[0],
            "slice",
            source=source,
            line=seed_line("figure1", "seed"),
        )
        assert response["ok"], response
        assert response["result"]["origin"] == "analyzed"
        assert key in pair.stores[0].keys()
        # Fan-out is async: the peer converges within the drain window.
        assert wait_until(lambda: key in pair.stores[1].keys())
        stats = pair.servers[0].replicator.stats()
        assert stats["replicated_total"] == 1
        # The received copy terminated at its holder — shard 1 pushed
        # nothing back around the ring.
        assert pair.servers[1].replicator.stats()["replicated_total"] == 0

    def test_local_miss_served_from_replica_no_recompute(self, tmp_path):
        pair = ReplicatedPair(tmp_path, configure=False)
        try:
            source = load_source("figure1")
            options = AnalyzeOptions()
            key = content_key(source, options)
            # Seed ONLY shard 1's store, before replication exists.
            cold = rpc(
                pair.servers[1],
                "slice",
                source=source,
                line=seed_line("figure1", "seed"),
            )
            assert cold["ok"] and cold["result"]["origin"] == "analyzed"
            pair.configure(factor=2)
            warm = rpc(
                pair.servers[0],
                "slice",
                source=source,
                line=seed_line("figure1", "seed"),
            )
            assert warm["ok"], warm
            assert warm["result"]["origin"] == "replica"
            # Zero recomputes: the cache never fell through to analyze.
            assert pair.servers[0].cache.misses == 0
            assert pair.servers[0].cache.replica_hits == 1
            # Read repair persisted the fetched copy locally.
            assert key in pair.stores[0].keys()
            # And the byte payloads agree across shards.
            assert pair.stores[0].load_payload(key) == pair.stores[
                1
            ].load_payload(key)
        finally:
            pair.close()

    def test_repair_converges_a_stale_peer(self, tmp_path):
        pair = ReplicatedPair(tmp_path, configure=False)
        try:
            source = load_source("figure2")
            key = content_key(source, AnalyzeOptions())
            cold = rpc(
                pair.servers[0],
                "slice",
                source=source,
                line=seed_line("figure2", "seed"),
            )
            assert cold["ok"]
            assert key not in pair.stores[1].keys()
            pair.configure(factor=2)
            summary = rpc(pair.servers[0], "repair", wait=True)
            assert summary["ok"], summary
            assert summary["result"]["pushed"] == 1
            assert summary["result"]["errors"] == 0
            assert key in pair.stores[1].keys()
            # A second pass has nothing left to push (idempotent).
            again = rpc(pair.servers[0], "repair", wait=True)
            assert again["result"]["pushed"] == 0
        finally:
            pair.close()

    def test_put_artifact_rejects_corrupt_payload(self, pair):
        source = load_source("figure1")
        key = content_key(source, AnalyzeOptions())
        garbage = encode_payload(b"not an artifact")
        response = rpc(
            pair.servers[0], "put_artifact", key=key, payload=garbage
        )
        assert not response["ok"]
        assert response["error"]["type"] == "BadParams"
        assert key not in pair.stores[0].keys()

    def test_get_artifact_not_found_is_structured(self, pair):
        response = rpc(pair.servers[0], "get_artifact", key="0" * 64)
        assert not response["ok"]
        assert response["error"]["type"] == "NotFound"

    def test_health_reports_replication_and_store_root(self, pair):
        health = rpc(pair.servers[0], "health")["result"]
        assert health["store"]["root"] == str(pair.stores[0].root)
        replication = health["replication"]
        assert replication["factor"] == 2
        assert replication["peers"] == 1

    def test_payload_codec_roundtrip(self):
        payload = bytes(range(256))
        assert decode_payload(encode_payload(payload)) == payload
        with pytest.raises(ValueError):
            decode_payload("@@@not-base64@@@")
        with pytest.raises(ValueError):
            decode_payload(123)


class TestReplicatorPlacement:
    def test_holders_are_failover_prefix(self, tmp_path):
        peers = [f"127.0.0.1:{7000 + i}" for i in range(4)]
        replicator = Replicator(
            DiskStore(tmp_path), peers[0], peers, factor=2
        )
        try:
            for key in ("a" * 64, "b" * 64, "c" * 64):
                holders = replicator.holders(key)
                assert holders == replicator.ring.preference(key)[:2]
                assert len(set(holders)) == 2
        finally:
            replicator.close()


class _SlowPeer:
    """A fake replica peer on localhost that holds one artifact.

    It is slow in the way a loaded peer is: it looks at its socket only
    every ``delay_s`` and answers every complete request it finds there
    in one write, so back-to-back responses reach the client together.
    """

    def __init__(self, key: str, payload: bytes, delay_s: float) -> None:
        def reply(line: bytes) -> str:
            request = json.loads(line)
            if request["method"] == "get_artifact":
                result = {"key": key, "payload": encode_payload(payload)}
            else:
                result = {"stored": True}
            response = {"id": request["id"], "ok": True, "result": result}
            return json.dumps(response) + "\n"

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                pending = b""
                while True:
                    time.sleep(delay_s)
                    ready, _, _ = select.select([self.request], [], [], 0)
                    if ready:
                        chunk = self.request.recv(1 << 20)
                        if not chunk:
                            return
                        pending += chunk
                    *lines, pending = pending.split(b"\n")
                    replies = "".join(reply(line) for line in lines if line)
                    if replies:
                        self.request.sendall(replies.encode())

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        threading.Thread(target=self.server.serve_forever, daemon=True).start()
        host, port = self.server.server_address[:2]
        self.address = f"{host}:{port}"

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()


class TestSharedPeerConnection:
    def test_concurrent_fetches_and_pushes_to_one_slow_peer(self, tmp_path):
        """The push thread and request threads share one connection per
        peer; their request/response exchanges must not interleave."""
        from repro import analyze
        from repro.artifact.encode import encode_artifact

        options = AnalyzeOptions()
        source = load_source("figure1")
        key = content_key(source, options)
        payload = encode_artifact(analyze(source, options=options), key=key)
        peer = _SlowPeer(key, payload, delay_s=0.1)
        me = "127.0.0.1:1"  # never dialed: a replicator skips itself
        replicator = Replicator(
            DiskStore(tmp_path), me, [me, peer.address], factor=2
        )

        def pushed():
            stats = replicator.stats()
            return stats["replicated_total"] + stats["replication_errors"]

        fetched = []
        fetchers = [
            threading.Thread(target=lambda: fetched.append(replicator.fetch(key)))
            for _ in range(3)
        ]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            start = time.monotonic()
            replicator.artifact_saved(key, payload)
            replicator.artifact_saved(key, payload)
            for thread in fetchers:
                thread.start()
            for thread in fetchers:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in fetchers)
            fetch_s = time.monotonic() - start
            assert wait_until(lambda: pushed() >= 2, timeout_s=30.0)
            push_s = time.monotonic() - start
        finally:
            sys.setswitchinterval(switch_interval)
            replicator.close()
            peer.close()
        assert fetched == [payload] * 3, "a replica fetch failed"
        stats = replicator.stats()
        assert stats["replicated_total"] == 2
        assert stats["replication_errors"] == 0
        # Serialized, the five exchanges cost ~5 x 0.1-0.2s; an
        # interleaved pair fails or stalls until the 10s peer timeout.
        assert fetch_s < 3.0 and push_s < 3.0, (fetch_s, push_s)


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------


class TestDeadlineExpired:
    def test_queued_request_is_shed_without_a_worker(self):
        plan = FaultPlan(analysis_delay_s=2.0)
        server = make_server(
            AnalysisCache(fault_plan=plan),
            fault_plan=plan,
            workers=1,
            executor="thread",
        )
        try:
            results = []

            def occupy():
                results.append(
                    rpc(
                        server,
                        "slice",
                        source=load_source("figure1"),
                        line=seed_line("figure1", "seed"),
                    )
                )

            blocker = threading.Thread(target=occupy)
            blocker.start()
            assert wait_until(
                lambda: rpc(server, "health")["result"]["busy"] == 1
            )
            queued = rpc(
                server,
                "slice",
                source=load_source("figure2"),
                line=seed_line("figure2", "seed"),
                deadline=0.3,
            )
            blocker.join(timeout=30)
            assert not queued["ok"]
            assert queued["error"]["type"] == "DeadlineExpired"
            assert "queued" in queued["error"]["message"]
            # The blocked request itself completed normally.
            assert results and results[0]["ok"]
        finally:
            server.close()

    def test_router_forwards_remaining_deadline(self, tier):
        captured = {}
        address = tier.pool.addresses()[0]
        shard = tier.pool.shard(address)
        original = shard.call

        def recording(method, params):
            if method == "slice":
                captured["deadline"] = params.get("deadline")
                time.sleep(0.2)
            return original(method, params)

        shard.call = recording
        # Force a single-candidate walk so the recorded shard serves.
        other = [a for a in tier.pool.addresses() if a != address][0]
        tier.kill(other)
        response = route(
            tier.router,
            "slice",
            source=load_source("figure1"),
            line=seed_line("figure1", "seed"),
            deadline=30.0,
        )
        assert response["ok"], response
        assert captured["deadline"] is not None
        assert 0 < captured["deadline"] <= 30.0

    def test_router_sheds_when_deadline_lapses_mid_walk(self, tier):
        for address in tier.pool.addresses():
            shard = tier.pool.shard(address)

            def slow_fail(method, params, _shard=shard):
                time.sleep(0.3)
                raise ServerError("Disconnected", "injected", None)

            shard.call = slow_fail
        response = route(
            tier.router,
            "slice",
            source=load_source("figure1"),
            line=seed_line("figure1", "seed"),
            deadline=0.2,
        )
        assert not response["ok"]
        assert response["error"]["type"] == "DeadlineExpired"
        assert tier.router.deadline_expired_total == 1


# ----------------------------------------------------------------------
# Hedging
# ----------------------------------------------------------------------


class TestHedging:
    def test_slow_primary_hedged_to_replica(self, tmp_path):
        tier = Tier(shards=2, hedge=True, hedge_delay_s=0.05)
        try:
            source = load_source("figure1")
            line = seed_line("figure1", "seed")
            key = tier.router._routing_key({"source": source})
            primary = tier.router.ring.preference(key)[0]
            shard = tier.pool.shard(primary)
            original = shard.call

            def sluggish(method, params):
                if method == "slice":
                    time.sleep(0.6)
                return original(method, params)

            shard.call = sluggish
            start = time.monotonic()
            response = route(tier.router, "slice", source=source, line=line)
            elapsed = time.monotonic() - start
            assert response["ok"], response
            assert tier.router.hedges_total == 1
            assert tier.router.hedge_wins == 1
            # The hedge answered well before the sluggish primary.
            assert elapsed < 0.6
        finally:
            tier.close()

    def test_no_hedge_without_latency_signal(self, tier):
        # Adaptive mode with zero samples: the first request must not
        # hedge (there is no quantile to trigger on).
        response = route(
            tier.router,
            "slice",
            source=load_source("figure1"),
            line=seed_line("figure1", "seed"),
        )
        assert response["ok"]
        assert tier.router.hedges_total == 0
        assert tier.router._hedge_delay() is None

    def test_fixed_delay_beats_quantile(self):
        router_tier = Tier(shards=2, hedge=True, hedge_delay_s=0.25)
        try:
            assert router_tier.router._hedge_delay() == 0.25
        finally:
            router_tier.close()


# ----------------------------------------------------------------------
# Session checkpointing
# ----------------------------------------------------------------------


def _insert_stmt(source: str) -> str:
    spans = [
        u
        for u in split_units(source).units
        if u.kind == "method" and u.end_line > u.start_line
    ]
    unit = spans[0]
    lines = source.splitlines(keepends=True)
    lines.insert(unit.start_line, '        String __ck = "checkpoint";\n')
    return "".join(lines)


class TestCheckpointResume:
    def test_fresh_process_resumes_lineage_from_sidecar(self, tmp_path):
        store_root = tmp_path / "store"
        source = load_source("figure1")
        options = AnalyzeOptions()

        cache1 = AnalysisCache(
            store=DiskStore(store_root),
            fragments=FragmentStore(
                checkpoint_dir=store_root / "sessions"
            ),
        )
        _, origin = cache1.get_entry(source, "fig1.mj", options)
        assert origin == "analyzed"
        assert cache1.fragments.checkpoints_written == 1
        sidecars = list((store_root / "sessions").glob("*.json"))
        assert len(sidecars) == 1

        # "Crash": a brand-new cache/fragment store over the same root
        # — exactly what a respawned shard daemon constructs.
        cache2 = AnalysisCache(
            store=DiskStore(store_root),
            fragments=FragmentStore(
                checkpoint_dir=store_root / "sessions"
            ),
        )
        edited = "// resumed\n" + source
        entry, origin = cache2.get_entry(edited, "fig1.mj", options)
        assert origin == "incremental"
        frags = cache2.fragments.stats()
        assert frags["sessions_restored"] == 1
        assert frags["sessions_seeded"] == 1
        # Byte identity held across the resume.
        from repro import analyze
        from repro.artifact.encode import encode_artifact

        cold = encode_artifact(
            analyze(edited, "fig1.mj", options=options),
            key=content_key(edited, options),
        )
        assert bytes(entry.view._buffer) == cold

    def test_edit_advances_the_checkpoint_anchor(self, tmp_path):
        store_root = tmp_path / "store"
        source = load_source("figure1")
        options = AnalyzeOptions()
        cache1 = AnalysisCache(
            store=DiskStore(store_root),
            fragments=FragmentStore(
                checkpoint_dir=store_root / "sessions"
            ),
        )
        cache1.get_entry(source, "fig1.mj", options)
        edited = _insert_stmt(source)
        entry, origin = cache1.get_entry(edited, "fig1.mj", options)
        # A body edit is analyzed cold, and its result becomes the
        # anchor: the sidecar for its structure points at it.
        assert origin == "analyzed"
        from repro import analyze
        from repro.artifact.encode import encode_artifact

        assert bytes(entry.view._buffer) == encode_artifact(
            analyze(edited, "fig1.mj", options=options),
            key=content_key(edited, options),
        )
        recorded = [
            json.loads(p.read_text())
            for p in (store_root / "sessions").glob("*.json")
        ]
        keys = {r["key"] for r in recorded}
        assert content_key(edited, options) in keys

    def test_corrupt_sidecar_falls_back_to_cold(self, tmp_path):
        store_root = tmp_path / "store"
        source = load_source("figure1")
        options = AnalyzeOptions()
        cache1 = AnalysisCache(
            store=DiskStore(store_root),
            fragments=FragmentStore(
                checkpoint_dir=store_root / "sessions"
            ),
        )
        cache1.get_entry(source, "fig1.mj", options)
        for sidecar in (store_root / "sessions").glob("*.json"):
            sidecar.write_text("{ truncated")
        cache2 = AnalysisCache(
            store=DiskStore(store_root),
            fragments=FragmentStore(
                checkpoint_dir=store_root / "sessions"
            ),
        )
        edited = "// shifted\n" + source
        _, origin = cache2.get_entry(edited, "fig1.mj", options)
        assert origin == "analyzed"
        assert cache2.fragments.sessions_restored == 0

    def test_concurrent_checkpoints_never_tear_the_sidecar(self, tmp_path):
        """Two writers advancing one lineage while a reader polls: every
        write lands whole and every read parses."""
        source = load_source("figure1")
        options = AnalyzeOptions()
        store = FragmentStore(checkpoint_dir=tmp_path / "sessions")
        shape = split_units(source)
        slot_key = (shape.structure_fingerprint, options.cache_token())
        path = store._checkpoint_path(slot_key)
        writes = 300
        done = threading.Event()
        torn: list[str] = []

        def write(tag: str) -> None:
            for i in range(writes):
                store._checkpoint(slot_key, f"{tag}{i}", source, "fig1.mj")

        def read() -> None:
            while not done.is_set():
                try:
                    text = path.read_text(encoding="utf-8")
                except FileNotFoundError:
                    continue
                try:
                    json.loads(text)
                except ValueError:
                    torn.append(text)

        writers = [
            threading.Thread(target=write, args=(tag,)) for tag in "ab"
        ]
        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reader])
        assert store.checkpoint_errors == 0
        assert store.checkpoints_written == 2 * writes
        assert not torn
        assert json.loads(path.read_text())["key"] in ("a299", "b299")
        assert not list((tmp_path / "sessions").glob("*.tmp"))

    def test_no_checkpoint_dir_means_no_sidecars(self, tmp_path):
        cache = AnalysisCache(
            store=DiskStore(tmp_path / "store"),
            fragments=FragmentStore(),
        )
        cache.get_entry(load_source("figure1"), "fig1.mj", AnalyzeOptions())
        assert not (tmp_path / "store" / "sessions").exists()
        assert cache.fragments.checkpoints_written == 0


# ----------------------------------------------------------------------
# Respawn backoff and rolling restart
# ----------------------------------------------------------------------


class TestRespawnBackoff:
    def test_jitter_stays_within_bounds(self):
        for failures in range(10):
            base = min(
                RESPAWN_BACKOFF_S * (2 ** min(failures, 6)),
                RESPAWN_BACKOFF_CAP_S,
            )
            for _ in range(50):
                delay = _respawn_backoff(failures)
                assert base * 0.5 <= delay <= base * 1.5

    def test_backoff_caps(self):
        assert _respawn_backoff(100) <= RESPAWN_BACKOFF_CAP_S * 1.5


class TestRollingRestart:
    def test_external_shards_are_refused(self, tier):
        response = route(tier.router, "rolling_restart")
        assert response["ok"], response
        assert response["result"]["restarted"] == []
        assert all(
            f["error"] == "externally managed"
            for f in response["result"]["failed"]
        )

    def test_spawned_shards_restart_in_place(self):
        pool = ShardPool(probe_interval_s=0.2)
        pool.spawn_local(
            1, ["--no-disk-cache", "--workers", "1", "--timeout", "30"]
        )
        router = Router(pool)
        try:
            pool.probe_all()
            address = pool.addresses()[0]
            old_pid = pool.shard(address).process.pid
            result = route(tier_router := router, "rolling_restart")
            assert result["ok"], result
            restarted = result["result"]["restarted"]
            assert [r["address"] for r in restarted] == [address]
            assert restarted[0]["pid"] != old_pid
            assert result["result"]["failed"] == []
            # The respawned shard serves on the ORIGINAL port.
            ok = route(
                tier_router,
                "slice",
                source=load_source("figure1"),
                line=seed_line("figure1", "seed"),
            )
            assert ok["ok"], ok
            snap = pool.snapshot()[address]
            assert snap["consecutive_respawns"] >= 1
            assert snap["last_respawn_ts"] is not None
        finally:
            router.shutting_down = True
            pool.stop()
