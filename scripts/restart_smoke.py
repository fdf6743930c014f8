#!/usr/bin/env python
"""CI drill for crash-consistent warm state (PR 10 acceptance).

Starts a 3-shard replicated tier (`serve --shards 3 --replicate 2`)
and proves, from outside the process:

1. warm a working set across the ring and measure the warm-hit ratio;
2. rolling restart via the admin RPC while a concurrent client stream
   (``retries=0``) hammers the tier → **zero failed requests**, every
   shard reborn on its original port with a new pid;
3. the post-restart warm-hit ratio is **no worse** than before the
   restart (session/store state survived the roll);
4. SIGKILL one shard *and delete its store directory* → every
   previously-warm fingerprint is still served warm from a replica:
   **zero recomputes** (no ``origin: analyzed``) across the whole
   verification pass.

Run from the repo root: ``PYTHONPATH=src python scripts/restart_smoke.py``
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.lang.source import marker_line  # noqa: E402
from repro.server.client import ServerError, SliceClient  # noqa: E402
from repro.suite.loader import load_source  # noqa: E402

from _tier import spawn_tier, stop_tier  # noqa: E402

PROBE_INTERVAL_S = 0.3
WORKING_SET = 6
WARM_ORIGINS = ("memory", "disk", "replica", "incremental")


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def warm_ratio(client: SliceClient, sources: list[str], seed: int) -> float:
    """One pass over the working set; fraction served warm."""
    warm = 0
    for source in sources:
        result = client.slice(source, seed)
        if result["origin"] in WARM_ORIGINS:
            warm += 1
    return warm / len(sources)


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="repro-restart-")
    tier, port, _ = spawn_tier(
        [
            "--shards",
            "3",
            "--workers",
            "1",
            "--replicate",
            "2",
            "--repair-interval",
            "1",
            "--probe-interval",
            str(PROBE_INTERVAL_S),
        ],
        cache_dir,
    )
    try:
        base = load_source("figure2")
        seed = marker_line(base, "tag", "seed")
        sources = [f"{base}\n// restart {i}\n" for i in range(WORKING_SET)]

        with SliceClient.connect("127.0.0.1", port) as client:
            health = client.health()
            if health["healthy_shards"] != 3:
                fail(f"expected 3 healthy shards, got {health}")

            # 1. Warm the working set, then measure the warm ratio.
            cold_lines = {}
            for source in sources:
                cold_lines[source] = client.slice(source, seed)["lines"]
            pre_ratio = warm_ratio(client, sources, seed)
            if pre_ratio < 1.0:
                fail(f"pre-restart warm ratio {pre_ratio:.2f} < 1.0")
            print(f"ok: working set warm (ratio {pre_ratio:.2f})")

            pids = {
                address: shard["pid"]
                for address, shard in client.health()["shards"].items()
            }

            # 2. Rolling restart under concurrent zero-retry traffic.
            stream_failures: list[str] = []
            stream_count = [0]
            stop = threading.Event()

            def hammer() -> None:
                with SliceClient.connect(
                    "127.0.0.1", port, retries=0
                ) as stream:
                    index = 0
                    while not stop.is_set():
                        source = sources[index % len(sources)]
                        try:
                            result = stream.slice(source, seed)
                        except ServerError as exc:
                            stream_failures.append(str(exc))
                            return
                        if result["lines"] != cold_lines[source]:
                            stream_failures.append("divergent slice")
                            return
                        stream_count[0] += 1
                        index += 1
                        time.sleep(0.02)

            worker = threading.Thread(target=hammer)
            worker.start()
            time.sleep(0.2)
            summary = client.request(
                "rolling_restart", retries=0, drain_timeout_s=30.0
            )
            stop.set()
            worker.join(timeout=30)
            if summary["failed"]:
                fail(f"rolling restart reported failures: {summary}")
            if len(summary["restarted"]) != 3:
                fail(f"expected 3 restarts, got {summary}")
            if stream_failures:
                fail(f"client stream failed during the roll: {stream_failures}")
            if stream_count[0] == 0:
                fail("concurrent stream made no requests during the roll")
            reborn = client.health()["shards"]
            for address, old_pid in pids.items():
                if reborn[address]["pid"] == old_pid:
                    fail(f"{address} kept pid {old_pid} across the restart")
            print(
                f"ok: rolling restart, {stream_count[0]} concurrent "
                "requests, zero failures, all pids changed"
            )

            # 3. Warm ratio must not regress across the roll.
            post_ratio = warm_ratio(client, sources, seed)
            if post_ratio < pre_ratio:
                fail(
                    f"warm ratio regressed: {pre_ratio:.2f} -> "
                    f"{post_ratio:.2f}"
                )
            print(f"ok: post-restart warm ratio {post_ratio:.2f}")

            # 4. Kill one shard AND delete its store: replicas must
            # serve every previously-warm key with zero recomputes.
            health = client.health()
            victim, shard = next(iter(health["shards"].items()))
            store_root = shard["last_probe"]["store"]["root"]
            if cache_dir not in store_root:
                fail(f"unexpected store root {store_root}")
            os.kill(shard["pid"], signal.SIGKILL)
            shutil.rmtree(store_root, ignore_errors=True)
            print(f"ok: killed {victim} and deleted {store_root}")

            recomputes = 0
            for source in sources:
                result = client.slice(source, seed)
                if result["origin"] == "analyzed":
                    recomputes += 1
                if result["lines"] != cold_lines[source]:
                    fail("slice diverged after store loss")
            if recomputes:
                fail(
                    f"{recomputes} recomputes after store loss — "
                    "replicas did not cover the working set"
                )
            print("ok: store loss covered by replicas, 0 recomputes")

            if client.shutdown() != {"stopping": True}:
                fail("shutdown did not acknowledge")
        if tier.wait(timeout=30) != 0:
            fail(f"tier exited {tier.returncode}")
        print("ok: tier drained and exited 0")
        print("PASS")
        return 0
    finally:
        stop_tier(tier)
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
