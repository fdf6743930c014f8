#!/usr/bin/env python
"""CI smoke drill for the sharded serving tier.

Starts a 2-shard local tier with one CLI command (`serve --shards 2`),
then proves the deployment story end to end, from outside the process:

1. cold slice → ``origin: analyzed``; same request again → warm hit;
2. SIGKILL one shard mid-stream → every request in the stream still
   succeeds (failover re-routes via the ring);
3. the pool respawns the dead shard on its original port: health
   heals back to 2/2 with ``respawns_total >= 1`` and a new pid, and
   the reborn shard serves traffic again;
4. ``shutdown`` drains the tier and the process exits 0;
5. every shard's ``request`` log lines, each naming the shard in
   ``endpoint``, reached the tier's stderr (shards write their own
   logs to the stderr they inherit).

Run from the repo root: ``PYTHONPATH=src python scripts/router_smoke.py``
"""

from __future__ import annotations

import json
import os
import signal
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.server.client import SliceClient  # noqa: E402
from repro.suite.loader import load_source  # noqa: E402
from repro.lang.source import marker_line  # noqa: E402

from _tier import spawn_tier, stop_tier  # noqa: E402

PROBE_INTERVAL_S = 0.3


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-smoke-")
    logs: list[str] = []
    tier, port, reader = spawn_tier(
        [
            "--shards",
            "2",
            "--workers",
            "1",
            "--probe-interval",
            str(PROBE_INTERVAL_S),
        ],
        cache_dir,
        logs,
    )
    try:
        base = load_source("figure2")
        seed = marker_line(base, "tag", "seed")
        with SliceClient.connect("127.0.0.1", port) as client:
            if client.ping().get("role") != "router":
                fail("frontend did not identify as a router")

            # 1. Cold then warm.
            cold = client.slice(base, seed)
            if cold["origin"] != "analyzed":
                fail(f"cold slice origin {cold['origin']!r}")
            warm = client.slice(base, seed)
            if warm["origin"] not in ("memory", "disk"):
                fail(f"warm slice origin {warm['origin']!r}")
            if warm["lines"] != cold["lines"]:
                fail("warm slice diverged from cold slice")
            print(f"ok: cold ({cold['origin']}) and warm ({warm['origin']})")

            health = client.health()
            if health["healthy_shards"] != 2:
                fail(f"expected 2 healthy shards, got {health}")
            shard_addresses = set(health["shards"])
            victim, pid = next(
                (address, shard["pid"])
                for address, shard in health["shards"].items()
            )

            # 2. Kill one shard mid-stream: zero failed requests.
            sources = [f"{base}\n// smoke {i}\n" for i in range(4)]
            for index in range(12):
                if index == 4:
                    os.kill(pid, signal.SIGKILL)
                    print(f"ok: killed shard {victim} (pid {pid})")
                result = client.slice(sources[index % len(sources)], seed)
                if result["line_count"] <= 0:
                    fail(f"request {index} returned an empty slice")
            print("ok: 12/12 requests succeeded across the kill")

            # 3. The pool respawns the dead shard on its old port.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                health = client.health()
                reborn = health["shards"][victim]
                if (
                    health["healthy_shards"] == 2
                    and reborn["state"] == "healthy"
                    and reborn.get("respawns", 0) >= 1
                ):
                    break
                time.sleep(PROBE_INTERVAL_S / 2)
            else:
                fail(f"dead shard was never respawned: {health}")
            if health.get("respawns_total", 0) < 1:
                fail(f"router did not count the respawn: {health}")
            if reborn["pid"] == pid:
                fail(f"respawned shard kept the dead pid {pid}")
            if not health["healthy"]:
                fail(f"tier unhealthy after respawn: {health}")
            print(
                f"ok: shard {victim} respawned (pid {pid} -> "
                f"{reborn['pid']}), tier back to 2/2"
            )

            # The reborn shard owns its old ring slot, so the same
            # stream routes through it again without errors.
            for index in range(8):
                result = client.slice(sources[index % len(sources)], seed)
                if result["line_count"] <= 0:
                    fail(f"post-respawn request {index} empty")
            print("ok: 8/8 requests succeeded after respawn")

            # 4. Drain.
            if client.shutdown() != {"stopping": True}:
                fail("shutdown did not acknowledge")
        if tier.wait(timeout=30) != 0:
            fail(f"tier exited {tier.returncode}")
        print("ok: tier drained and exited 0")

        # 5. Shard request lines reached the tier's stderr.
        reader.join(timeout=30)
        endpoints = set()
        for line in logs:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and event.get("event") == "request":
                if event.get("endpoint") not in shard_addresses:
                    fail(f"shard request line without its endpoint: {line!r}")
                endpoints.add(event["endpoint"])
        if endpoints != shard_addresses:
            fail(
                f"request lines from {sorted(endpoints)}, expected every "
                f"shard of {sorted(shard_addresses)}"
            )
        print(f"ok: request lines from all {len(endpoints)} shards on stderr")
        print("PASS")
        return 0
    finally:
        stop_tier(tier)


if __name__ == "__main__":
    raise SystemExit(main())
