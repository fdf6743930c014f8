"""Sharded serving tier tests: routing, failover, aggregation, drills.

Most tests run the router over *in-process* daemon shards (each one a
real :class:`SliceServer` behind a real TCP listener) so the full
forwarding path — pooled connections, retry semantics, health
accounting — is exercised without subprocess cost.  The mid-stream
shard-kill acceptance drill at the bottom uses genuinely spawned shard
processes, because only a killable process proves the failover story.
"""

from __future__ import annotations

import json
import logging
import socket
import sys
import threading
import time

import pytest

from repro.lang.source import marker_line
from repro.server.cache import AnalysisCache
from repro.server.client import ServerError, SliceClient
from repro.server.daemon import start_tcp_server
from repro.server.faults import FaultPlan
from repro.server.ring import HashRing
from repro.server.router import Router
from repro.server.shardpool import HEALTHY, UNHEALTHY, ShardPool
from repro.suite.loader import load_source
from tests.conftest import make_server


def seed_line(name: str, tag: str) -> int:
    return marker_line(load_source(name), "tag", tag)


def route(router: Router, method: str, request_id=1, **params):
    line = json.dumps({"id": request_id, "method": method, "params": params})
    return json.loads(router.handle_line(line))


class Tier:
    """N in-process daemon shards behind one router."""

    def __init__(self, shards: int = 2, **router_kwargs):
        self.backends: dict[str, tuple] = {}  # address -> (server, tcp, thread)
        self.pool = ShardPool(probe_interval_s=30.0)  # probes driven manually
        for _ in range(shards):
            instance = make_server(AnalysisCache())
            tcp_server, thread = start_tcp_server(instance)
            host, port = tcp_server.server_address[:2]
            self.pool.attach(host, port)
            self.backends[f"{host}:{port}"] = (instance, tcp_server, thread)
        self.router = Router(self.pool, **router_kwargs)

    def kill(self, address: str) -> None:
        """Stop a shard's listener so new dials are refused.  (A hard
        mid-stream process kill — broken pooled connections included —
        is the spawned-shard drill's job; in-process handler threads
        cannot be killed, so pooled connections are dropped here.)"""
        instance, tcp_server, _ = self.backends[address]
        tcp_server.shutdown()
        tcp_server.server_close()
        instance.close()
        self.pool.shard(address).close_connections()

    def close(self) -> None:
        self.router.shutting_down = True  # suppress background drains
        if self.router._thread is not None:
            self.router.stop()
        for instance, tcp_server, _ in self.backends.values():
            try:
                tcp_server.shutdown()
                tcp_server.server_close()
            except OSError:
                pass
            instance.close()
        self.pool.stop()


@pytest.fixture()
def tier():
    t = Tier(shards=2)
    yield t
    t.close()


# ----------------------------------------------------------------------
# Differential: routed mode must be indistinguishable from one daemon
# ----------------------------------------------------------------------


class TestDifferential:
    def test_slice_byte_identical_cold_and_warm(self, tier):
        """The acceptance bar: byte-identical slice results between
        single-daemon and routed modes, cold then warm."""
        single = make_server(AnalysisCache())
        try:
            for name in ("figure1", "figure2"):
                source = load_source(name)
                line = seed_line(name, "seed")
                for pass_name in ("cold", "warm"):
                    request = json.dumps(
                        {
                            "id": 1,
                            "method": "slice",
                            "params": {"source": source, "line": line},
                        }
                    )
                    direct = single.handle_line(request)
                    routed = tier.router.handle_line(request)
                    assert routed == direct, (
                        f"{name}/{pass_name}: routed response diverges"
                    )
        finally:
            single.close()

    def test_explain_why_chop_identical(self, tier):
        single = make_server(AnalysisCache())
        try:
            source = load_source("figure1")
            seed = seed_line("figure1", "seed")
            buggy = seed_line("figure1", "buggy")
            for method, params in (
                ("explain", {"source": source, "line": seed}),
                (
                    "why",
                    {
                        "source": source,
                        "source_line": buggy,
                        "sink_line": seed,
                    },
                ),
                (
                    "chop",
                    {
                        "source": source,
                        "source_line": buggy,
                        "sink_line": seed,
                    },
                ),
            ):
                request = json.dumps(
                    {"id": 3, "method": method, "params": params}
                )
                assert tier.router.handle_line(request) == single.handle_line(
                    request
                )
        finally:
            single.close()

    def test_error_responses_identical_modulo_endpoint(self, tier):
        single = make_server(AnalysisCache())
        try:
            request = json.dumps(
                {
                    "id": 5,
                    "method": "slice",
                    "params": {"source": load_source("figure2"), "line": "x"},
                }
            )
            direct = json.loads(single.handle_line(request))
            routed = json.loads(tier.router.handle_line(request))
            endpoint = routed["error"].pop("endpoint")
            assert endpoint in tier.backends
            assert routed == direct
        finally:
            single.close()


# ----------------------------------------------------------------------
# Routing: locality and key derivation
# ----------------------------------------------------------------------


class TestRouting:
    def test_same_source_always_hits_same_shard(self, tier):
        source = load_source("figure2")
        line = seed_line("figure2", "seed")
        first = route(tier.router, "slice", source=source, line=line)
        assert first["result"]["origin"] == "analyzed"
        for _ in range(3):
            again = route(tier.router, "slice", source=source, line=line)
            # A memory hit proves the request landed on the shard that
            # analyzed it — cache locality is the routing contract.
            assert again["result"]["origin"] == "memory"

    def test_distinct_sources_spread_across_shards(self, tier):
        base = load_source("figure2")
        owners = set()
        for salt in range(16):
            source = f"{base}\n// salt {salt}\n"
            key = tier.router._routing_key({"source": source})
            owners.add(tier.router.ring.owner(key))
        assert owners == set(tier.backends)

    def test_program_name_and_source_route_identically(self, tier):
        source = load_source("figure1")
        by_name = tier.router._routing_key({"program": "figure1"})
        by_source = tier.router._routing_key({"source": source})
        assert by_name == by_source

    def test_path_named_program_has_no_source(self):
        """A ``program`` that is not a shipped name reads no file."""
        assert Router._source_text({"program": "../programs/figure1"}) is None
        assert Router._source_text({"program": "stdlib"}) is None

    def test_unknown_program_answered_by_a_shard(self, tier):
        response = route(
            tier.router, "slice", program="../programs/figure1", line=1
        )
        assert response["error"]["type"] == "UnknownProgram"
        assert response["error"]["endpoint"] in tier.backends

    def test_include_stdlib_changes_key(self, tier):
        source = load_source("figure2")
        with_std = tier.router._routing_key({"source": source})
        without = tier.router._routing_key(
            {"source": source, "include_stdlib": False}
        )
        assert with_std != without

    def test_keyless_request_gets_authoritative_validation(self, tier):
        """No derivable key (missing source): the daemon answers, and
        the relayed error names the shard it came from."""
        response = route(tier.router, "slice", line=3)
        assert response["ok"] is False
        assert response["error"]["type"] == "BadParams"
        assert response["error"]["endpoint"] in tier.backends

    def test_unknown_method_rejected_locally(self, tier):
        response = route(tier.router, "frobnicate")
        assert response["error"]["type"] == "UnknownMethod"


# ----------------------------------------------------------------------
# Batch fan-out
# ----------------------------------------------------------------------


class TestBatch:
    def _spanning_items(self, tier, count=6):
        """Items engineered to span both shards."""
        base = load_source("figure2")
        line = seed_line("figure2", "seed")
        items, owners = [], set()
        for salt in range(32):
            source = f"{base}\n// batch salt {salt}\n"
            key = tier.router._routing_key({"source": source})
            owners.add(tier.router.ring.owner(key))
            items.append({"source": source, "line": line})
            if len(items) >= count and len(owners) == 2:
                break
        assert len(owners) == 2
        return items

    def test_fan_out_merges_in_request_order(self, tier):
        items = self._spanning_items(tier)
        single = make_server(AnalysisCache())
        try:
            request = json.dumps(
                {"id": 9, "method": "slice_batch", "params": {"items": items}}
            )
            direct = json.loads(single.handle_line(request))
            routed = json.loads(tier.router.handle_line(request))
            # ``origin`` reflects per-server warm state: the items are
            # structurally identical, so after each server's first cold
            # analysis the fragment store serves the rest incrementally
            # — and *which* items are cold differs between one server
            # and a 2-shard tier.  Everything else must match exactly,
            # in request order.
            origins = {
                entry.pop("origin")
                for payload in (direct, routed)
                for entry in payload["result"]["results"]
            }
            assert origins <= {"analyzed", "memory", "disk", "incremental"}
            assert routed == direct
            assert routed["result"]["count"] == len(items)
            assert routed["result"]["distinct_programs"] == len(items)
        finally:
            single.close()

    def test_single_owner_batch_forwards_untouched(self, tier):
        source = load_source("figure2")
        line = seed_line("figure2", "seed")
        response = route(
            tier.router,
            "slice_batch",
            source=source,
            lines=[line, line],
        )
        assert response["ok"]
        assert response["result"]["count"] == 2
        assert response["result"]["distinct_programs"] == 1

    def test_invalid_batch_item_fails_whole_request(self, tier):
        items = self._spanning_items(tier, count=4)
        items[2] = {"source": items[2]["source"], "line": "nope"}
        response = route(tier.router, "slice_batch", items=items)
        assert response["ok"] is False
        assert response["error"]["type"] == "BadParams"

    def test_malformed_items_shape_matches_daemon(self, tier):
        single = make_server(AnalysisCache())
        try:
            for params in ({"items": []}, {"items": "nope"}, {}):
                request = json.dumps(
                    {"id": 2, "method": "slice_batch", "params": params}
                )
                direct = json.loads(single.handle_line(request))
                routed = json.loads(tier.router.handle_line(request))
                routed["error"].pop("endpoint", None)
                assert routed == direct
        finally:
            single.close()


# ----------------------------------------------------------------------
# Failover and health
# ----------------------------------------------------------------------


class TestFailover:
    def test_dead_owner_fails_over_with_zero_client_failures(self, tier):
        source = load_source("figure2")
        line = seed_line("figure2", "seed")
        key = tier.router._routing_key({"source": source})
        owner = tier.router.ring.owner(key)
        assert route(tier.router, "slice", source=source, line=line)["ok"]
        tier.kill(owner)
        response = route(tier.router, "slice", source=source, line=line)
        assert response["ok"], response
        assert tier.pool.shard(owner).state == UNHEALTHY
        assert tier.router.failover_total >= 1
        # The survivor analyzed it fresh — artifacts are per-shard.
        assert response["result"]["origin"] == "analyzed"

    def test_all_shards_dead_surfaces_retryable_error(self, tier):
        for address in list(tier.backends):
            tier.kill(address)
        response = route(
            tier.router,
            "slice",
            source=load_source("figure2"),
            line=seed_line("figure2", "seed"),
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "Disconnected"
        assert "endpoint" in response["error"]

    def test_probe_demotes_dead_shard_and_health_reports_it(self, tier):
        victim = sorted(tier.backends)[0]
        tier.kill(victim)
        tier.pool.probe_all()
        payload = route(tier.router, "health")["result"]
        assert payload["role"] == "router"
        assert payload["healthy"] is True  # one survivor keeps the tier up
        assert payload["healthy_shards"] == 1
        assert payload["shards"][victim]["state"] == UNHEALTHY
        assert payload["shards"][victim]["last_error"]

    def test_recovered_shard_promoted_by_next_probe(self, tier):
        address = sorted(tier.backends)[0]
        tier.pool.note_failure(address, "synthetic blip", definitely_down=True)
        assert tier.pool.shard(address).state == UNHEALTHY
        tier.pool.probe_all()  # the shard is actually alive
        assert tier.pool.shard(address).state == HEALTHY
        payload = route(tier.router, "health")["result"]
        assert payload["healthy_shards"] == 2

    def test_unhealthy_shard_still_last_resort(self, tier):
        """Marked unhealthy but actually alive (a blip): the router
        prefers the healthy shard, but a key owned by the blipped one
        still answers — unhealthy is a preference, not a ban."""
        for address in tier.backends:
            tier.pool.note_failure(address, "blip", definitely_down=True)
        response = route(
            tier.router,
            "slice",
            source=load_source("figure2"),
            line=seed_line("figure2", "seed"),
        )
        assert response["ok"]

    def test_stats_aggregates_router_and_shards(self, tier):
        source = load_source("figure2")
        line = seed_line("figure2", "seed")
        route(tier.router, "slice", source=source, line=line)
        payload = route(tier.router, "stats")["result"]
        assert payload["role"] == "router"
        assert set(payload["shards"]) == set(tier.backends)
        assert payload["router"]["forwarded_total"] >= 1
        assert payload["methods"]["slice"]["count"] == 1
        assert sum(
            s.get("requests_total", 0) for s in payload["shards"].values()
        ) >= 1

    def test_per_program_stats_still_routed(self, tier):
        """``stats`` *with* a source resolves per-program statistics on
        the owning shard, not the aggregate view."""
        payload = route(
            tier.router, "stats", source=load_source("figure2")
        )["result"]
        assert "sdg_statements" in payload


class TestAdmission:
    def test_concurrent_forwards_respect_capacity(self):
        tier = Tier(shards=1, max_inflight=2, max_queue=2)
        (address,) = tier.backends
        shard = tier.pool.shard(address)
        original = shard.call
        lock = threading.Lock()
        active = [0]
        peak = [0]

        def counting(method, params):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                time.sleep(0.002)
                return original(method, params)
            finally:
                with lock:
                    active[0] -= 1

        shard.call = counting
        source = load_source("figure2")
        line = seed_line("figure2", "seed")
        assert route(tier.router, "slice", source=source, line=line)["ok"]
        responses = []

        def client():
            for index in range(20):
                responses.append(
                    route(tier.router, "slice", index, source=source, line=line)
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            tier.close()
        shed = [r for r in responses if not r["ok"]]
        assert len(responses) == 160
        assert all(r["error"]["type"] == "Overloaded" for r in shed)
        # Every admission decision is counted once, and every admitted
        # forward released its place.
        assert tier.router.shed_total == len(shed)
        assert tier.router.forwarded_total == 1 + 160 - len(shed)
        assert tier.router._inflight == 0
        assert 1 <= peak[0] <= 2


class TestForwardPath:
    def test_forward_runs_once_on_the_calling_thread(self, tier):
        """Past 16 keyed slices a default router still calls the shard
        on the thread that called ``handle_line``, and a slow cold miss
        is sent to exactly one shard."""
        calls: list[tuple[str, str, int]] = []
        slow: set[str] = set()
        for address in tier.pool.addresses():
            shard = tier.pool.shard(address)

            def spy(method, params, _address=address, _call=shard.call):
                calls.append((_address, method, threading.get_ident()))
                if method == "slice" and _address in slow:
                    time.sleep(0.3)
                return _call(method, params)

            shard.call = spy
        line = seed_line("figure1", "seed")
        warm = load_source("figure1")
        for index in range(20):
            assert route(tier.router, "slice", index, source=warm, line=line)[
                "ok"
            ]
        caller = threading.get_ident()
        assert [c[2] for c in calls] == [caller] * 20

        cold = f"{warm}\n// cold miss\n"
        owner = tier.router.ring.owner(tier.router._routing_key({"source": cold}))
        slow.add(owner)
        calls.clear()
        response = route(tier.router, "slice", source=cold, line=line)
        assert response["ok"], response
        assert calls == [(owner, "slice", caller)]

    def test_error_answers_keep_the_pooled_connection(self, tier):
        dials = [0]
        for address in tier.pool.addresses():
            shard = tier.pool.shard(address)

            def counting(timeout=None, _dial=shard._dial):
                dials[0] += 1
                return _dial(timeout)

            shard._dial = counting
        source = load_source("figure1")
        for index in range(10):
            response = route(
                tier.router, "slice", index, source=source, line="nope"
            )
            assert response["error"]["type"] == "BadParams"
        line = seed_line("figure1", "seed")
        assert route(tier.router, "slice", source=source, line=line)["ok"]
        assert dials[0] == 1


# ----------------------------------------------------------------------
# The TCP frontend (the daemon's threaded line loop serving the router)
# ----------------------------------------------------------------------


class TestAsyncFrontend:
    def test_tcp_roundtrip_and_endpoint_attribution(self, tier):
        host, port = tier.router.start()
        with SliceClient.connect(host, port) as client:
            assert client.ping()["role"] == "router"
            line = seed_line("figure2", "seed")
            result = client.slice(load_source("figure2"), line)
            assert result["line_count"] > 0
            with pytest.raises(ServerError) as err:
                client.request("slice", source=load_source("figure2"), line="x")
            # The structured error names the *shard*, not the router.
            assert err.value.error_type == "BadParams"
            assert err.value.endpoint in tier.backends
            assert err.value.endpoint != f"{host}:{port}"

    def test_oversized_line_answered_and_connection_survives(
        self, monkeypatch
    ):
        import repro.server.daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "MAX_LINE_BYTES", 4096)
        tier = Tier(shards=1)
        try:
            host, port = tier.router.start()
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.settimeout(10)
                reader = sock.makefile("r", encoding="utf-8", newline="\n")
                sock.sendall(b"x" * 8192 + b"\n")
                response = json.loads(reader.readline())
                assert response["ok"] is False
                assert response["error"]["type"] == "Protocol"
                assert response["id"] is None
                # Framing recovered: the next request works.
                sock.sendall(
                    json.dumps({"id": 2, "method": "ping"}).encode() + b"\n"
                )
                response = json.loads(reader.readline())
                assert response["ok"] and response["result"]["pong"]
        finally:
            tier.close()

    def test_admission_control_sheds_overloaded(self):
        plan = FaultPlan(shard_slow_s=0.5)
        tier = Tier(shards=1, max_inflight=1, max_queue=0, fault_plan=plan)
        try:
            host, port = tier.router.start()
            results = []

            def call():
                with socket.create_connection((host, port), timeout=10) as s:
                    s.settimeout(10)
                    reader = s.makefile("r", encoding="utf-8", newline="\n")
                    s.sendall(
                        json.dumps(
                            {
                                "id": 1,
                                "method": "slice",
                                "params": {
                                    "source": load_source("figure2"),
                                    "line": seed_line("figure2", "seed"),
                                },
                            }
                        ).encode()
                        + b"\n"
                    )
                    results.append(json.loads(reader.readline()))

            threads = [threading.Thread(target=call) for _ in range(3)]
            for t in threads:
                t.start()
                time.sleep(0.05)  # ensure the first occupies the slot
            for t in threads:
                t.join(timeout=30)
            shed = [
                r
                for r in results
                if not r["ok"] and r["error"]["type"] == "Overloaded"
            ]
            served = [r for r in results if r["ok"]]
            assert served, results
            assert shed, results
            # Introspection bypasses admission even at capacity.
            with SliceClient.connect(host, port) as client:
                assert client.health()["role"] == "router"
        finally:
            tier.close()

    def test_introspection_answers_while_a_forward_holds_capacity(self):
        plan = FaultPlan(shard_slow_s=1.5)
        tier = Tier(shards=1, max_inflight=1, max_queue=0, fault_plan=plan)
        source = load_source("figure2")
        line = seed_line("figure2", "seed")
        held = []

        def hold():
            with SliceClient.connect(host, port, retries=0) as client:
                held.append(client.slice(source, line))

        try:
            host, port = tier.router.start()
            holder = threading.Thread(target=hold)
            holder.start()
            deadline = time.monotonic() + 10
            while tier.router._inflight < 1:
                assert time.monotonic() < deadline, "forward never admitted"
                time.sleep(0.01)
            # The only forwarding slot is held at the shard for 1.5 s.
            started = time.monotonic()
            with SliceClient.connect(host, port, retries=0) as client:
                assert client.ping()["role"] == "router"
                assert client.health()["role"] == "router"
                assert time.monotonic() - started < 0.5
                with pytest.raises(ServerError) as err:
                    client.slice(source, line)
                assert err.value.error_type == "Overloaded"
            holder.join(timeout=30)
            assert held and held[0]["line_count"] > 0
        finally:
            tier.close()

    def test_start_logs_one_listening_line(self, tier, caplog):
        with caplog.at_level(logging.INFO, logger="repro.router"):
            host, port = tier.router.start()
        events = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.router"
        ]
        listening = [
            event
            for event in events
            if event.get("event") == "listening"
            and event.get("role") == "router"
        ]
        assert listening == [
            {"event": "listening", "role": "router", "host": host, "port": port}
        ]

    def test_shutdown_drains_and_closes(self, tier):
        host, port = tier.router.start()
        with SliceClient.connect(host, port) as client:
            assert client.shutdown() == {"stopping": True}
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not tier.router._thread.is_alive():
                break
            time.sleep(0.05)
        assert not tier.router._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1).close()


# ----------------------------------------------------------------------
# The acceptance drill: killing a real shard mid-stream
# ----------------------------------------------------------------------


class TestShardKillDrill:
    def test_mid_stream_kill_zero_failed_requests(self, tmp_path):
        """With 2 spawned shards serving a request stream, a hard kill
        of one shard mid-stream causes zero failed client requests and
        the aggregated health reports the death within one probe."""
        pool = ShardPool(probe_interval_s=0.2)
        pool.spawn_local(
            2, ["--no-disk-cache", "--workers", "1", "--timeout", "30"]
        )
        plan = FaultPlan(shard_kills=1)
        router = Router(pool, fault_plan=plan)
        try:
            pool.probe_all()
            host, port = router.start()
            pool.start_probing()
            base = load_source("figure2")
            line = seed_line("figure2", "seed")
            with SliceClient.connect(host, port) as client:
                sources = [f"{base}\n// stream {i}\n" for i in range(4)]
                ok = 0
                for round_index in range(3):
                    for source in sources:
                        result = client.slice(source, line)
                        assert result["line_count"] > 0
                        ok += 1
                assert ok == 12
                assert plan.shard_kills == 0  # the drill fired
                assert router.failover_total >= 1
                # The probe notices the corpse within its interval,
                # then respawns it on the same port: the tier heals to
                # 2/2 healthy with one recorded resurrection.
                deadline = time.monotonic() + 30
                respawned = None
                while time.monotonic() < deadline:
                    payload = client.health()
                    respawned = [
                        a
                        for a, s in payload["shards"].items()
                        if s.get("respawns", 0) >= 1
                    ]
                    if payload["healthy_shards"] == 2 and respawned:
                        break
                    time.sleep(0.1)
                assert payload["healthy_shards"] == 2
                assert payload["healthy"] is True
                assert len(respawned) == 1
                # The reborn shard kept its ring slot: the same key
                # stream lands on it again and every request succeeds.
                reborn = pool.shard(respawned[0])
                before = reborn.forwarded_total
                for source in sources:
                    assert client.slice(source, line)["line_count"] > 0
                assert reborn.forwarded_total > before
        finally:
            router.stop()


class TestRingViewInPayloads:
    def test_health_reports_ring_ownership(self, tier):
        payload = route(tier.router, "health")["result"]
        shares = payload["ring"]["ownership"]
        assert set(shares) == set(tier.backends)
        assert abs(sum(shares.values()) - 1.0) < 0.01
        assert payload["ring"]["replicas"] == 64

    def test_router_ring_matches_standalone_ring(self, tier):
        standalone = HashRing(tier.pool.addresses(), replicas=64)
        source = load_source("figure1")
        key = tier.router._routing_key({"source": source})
        assert standalone.owner(key) == tier.router.ring.owner(key)
