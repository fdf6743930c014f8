"""Sharded tier warm-hit throughput: N shards behind a router vs one daemon.

The workload is the tier's design target: a stream of *warm* slice
requests over a set of distinct programs, issued by several concurrent
client connections.  Each mode serves the identical request mix:

* **single** — clients connect straight to one spawned daemon;
* **routed** — clients connect to the router in front of N spawned
  shard daemons; consistent hashing sends each program to the shard
  whose LRU owns it.

All daemons are real spawned ``repro serve --tcp`` processes, so the
comparison includes every process boundary a deployment pays.  On a
single-core machine the shards and the router share one CPU and routing
adds a hop, so routed throughput lands *below* the single daemon there
— the thresholds only bite when the machine can actually put shards on
separate cores (``thresholds_enforced`` records the decision, mirroring
``bench_parallel``).

Emits ``results/router.txt`` and ``results/BENCH_router.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from _util import emit, environment, format_table
from repro.lang.source import marker_line
from repro.server.client import SliceClient
from repro.server.router import start_router
from repro.server.shardpool import ShardPool
from repro.suite.loader import load_source

PROGRAM = "minixml"
SHARD_COUNTS = [2]
CLIENTS = 4
REQUESTS_PER_CLIENT = 50
DISTINCT_SOURCES = 8

SERVE_ARGS = ["--no-disk-cache", "--memory-capacity", "16", "--workers", "2"]


def _sources() -> list[tuple[str, int]]:
    base = load_source(PROGRAM)
    seed = marker_line(base, "tag", "printrender")
    return [
        (f"{base}\n// router-bench salt {index}\n", seed)
        for index in range(DISTINCT_SOURCES)
    ]


def _drive(host: str, port: int, sources: list[tuple[str, int]]) -> dict:
    """Warm every source once, then hammer warm hits concurrently."""
    with SliceClient.connect(host, port) as warmer:
        for source, seed in sources:
            result = warmer.slice(source, seed)
            assert result["line_count"] > 0

    latencies_ms: list[float] = []

    def client_loop(worker: int) -> list[float]:
        own: list[float] = []
        with SliceClient.connect(host, port) as client:
            for index in range(REQUESTS_PER_CLIENT):
                source, seed = sources[(worker + index) % len(sources)]
                start = time.perf_counter()
                result = client.slice(source, seed)
                own.append((time.perf_counter() - start) * 1000)
                assert result["origin"] == "memory", result["origin"]
        return own

    with ThreadPoolExecutor(max_workers=CLIENTS) as fan:
        start = time.perf_counter()
        for chunk in fan.map(client_loop, range(CLIENTS)):
            latencies_ms.extend(chunk)
        wall_s = time.perf_counter() - start

    total = CLIENTS * REQUESTS_PER_CLIENT
    return {
        "clients": CLIENTS,
        "requests": total,
        "wall_s": round(wall_s, 3),
        "req_per_s": round(total / wall_s, 1),
        "p50_ms": round(statistics.median(latencies_ms), 3),
        "p95_ms": round(
            sorted(latencies_ms)[int(len(latencies_ms) * 0.95)], 3
        ),
    }


def _measure_single(sources) -> dict:
    pool = ShardPool()
    try:
        (shard,) = pool.spawn_local(1, SERVE_ARGS)
        return _drive(shard.host, shard.port, sources)
    finally:
        pool.stop()


def _measure_routed(shards: int, sources) -> dict:
    pool = ShardPool(probe_interval_s=5.0)
    router = None
    try:
        pool.spawn_local(shards, SERVE_ARGS)
        router = start_router(pool, max_inflight=CLIENTS * 2)
        host, port = router.address
        measured = _drive(host, port, sources)
        measured["failovers"] = router.failover_total
        return measured
    finally:
        if router is not None:
            router.stop()
        else:
            pool.stop()


def test_router_throughput(results_dir):
    env = environment()
    cpu_count = env["cpu_count"] or 1
    sources = _sources()

    single = _measure_single(sources)
    routed = {n: _measure_routed(n, sources) for n in SHARD_COUNTS}

    rows = [
        [
            "single",
            "1",
            str(single["clients"]),
            f"{single['req_per_s']:.0f}/s",
            f"{single['p50_ms']:.1f}ms",
            f"{single['p95_ms']:.1f}ms",
            "1.00x",
        ]
    ]
    for n, measured in routed.items():
        rows.append(
            [
                "routed",
                str(n),
                str(measured["clients"]),
                f"{measured['req_per_s']:.0f}/s",
                f"{measured['p50_ms']:.1f}ms",
                f"{measured['p95_ms']:.1f}ms",
                f"{measured['req_per_s'] / single['req_per_s']:.2f}x",
            ]
        )

    thresholds_enforced = cpu_count >= 4
    payload = {
        "benchmark": "router",
        "program": PROGRAM,
        **env,
        "thresholds_enforced": thresholds_enforced,
        "distinct_sources": DISTINCT_SOURCES,
        "warm_hit": {"single": single}
        | {f"routed_{n}": m for n, m in routed.items()},
    }
    table = format_table(
        ["mode", "shards", "clients", "warm", "p50", "p95", "vs single"],
        rows,
    )
    table += (
        f"\ncpu_count={cpu_count} python={env['python']} "
        f"commit={env['commit']} thresholds_enforced={thresholds_enforced}\n"
    )
    emit(results_dir, "router.txt", table)
    (results_dir / "BENCH_router.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    for n, measured in routed.items():
        assert measured["failovers"] == 0, measured
    if thresholds_enforced:
        # Acceptance: with real cores under the shards, 2-shard routed
        # warm throughput under concurrent clients at least matches the
        # single daemon (locality keeps every hit a memory hit, and the
        # router hop is amortized by parallel shards).
        assert routed[2]["req_per_s"] >= single["req_per_s"], {
            "single": single,
            "routed": routed[2],
        }
