#!/usr/bin/env python
"""Seeded chaos soak for the self-healing artifact store.

The invariant under test is *zero wrong answers*: no matter what the
campaign does to the bytes on disk or to shard processes, every slice
answer must be identical to the pre-chaos truth computed on a clean
store.  Corruption may cost latency (quarantine + cold re-analysis),
never correctness.

Two phases, both time-boxed and driven by one seeded RNG:

* **Phase A — daemon path.**  A single ``serve --tcp`` daemon with a
  tiny memory LRU (so reads keep going back to disk) and a fast scrub
  timer.  Each round corrupts random ``.art`` files in the live store
  (bit flips, truncations, stale-metadata rewrites via the
  ``repro.server.faults`` helpers) and then replays every request.
  At the end the store counters must show the damage was noticed:
  ``quarantined > 0``.

* **Phase B — routed shard path.**  A ``serve --shards 2`` tier over
  the same corruptors, plus one SIGKILL of a random shard mid-stream.
  At the end the tier must be back to 2/2 healthy with
  ``respawns_total >= 1``.

* **Phase C — restart storm.**  A replicated 2-shard tier
  (``--replicate 2``) under the same corruptors, with seeded rolling
  restarts fired mid-stream between replays.  Every restart must
  complete with zero failed shards and the replay after it must still
  match the pre-chaos truth — the roll may cost latency, never an
  answer.

On any violation the script writes a failure corpus (the surviving
store bytes plus a JSON record of the divergence) under
``--corpus-dir`` and exits 1.

Run from the repo root::

    PYTHONPATH=src python scripts/chaos_soak.py --seed 1234 --budget 60
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.lang.source import marker_line  # noqa: E402
from repro.server.client import SliceClient  # noqa: E402
from repro.server.faults import (  # noqa: E402
    flip_artifact_bit,
    stale_artifact_meta,
    truncate_artifact,
)
from repro.suite.loader import load_source  # noqa: E402

from _tier import spawn_tier, stop_tier  # noqa: E402

PROBE_INTERVAL_S = 0.3
SOURCE_VARIANTS = 6

CORRUPTORS = (
    ("bit-flip", flip_artifact_bit),
    ("truncate", truncate_artifact),
    ("stale-meta", stale_artifact_meta),
)


class Violation(Exception):
    """A correctness invariant broke; carries the corpus record."""

    def __init__(self, message: str, record: dict) -> None:
        super().__init__(message)
        self.record = record


def artifact_files(cache_dir: str) -> list[Path]:
    """Every live artifact, across both store layouts: a single
    daemon's flat ``xx/*.art`` and the replicated tier's per-shard
    ``shard-N/xx/*.art`` roots.  Quarantined files are off-limits."""
    root = Path(cache_dir)
    candidates = list(root.glob("*/*.art")) + list(root.glob("*/*/*.art"))
    return sorted(
        path for path in candidates if "corrupt" not in path.parts
    )


def corrupt_some(rng: random.Random, cache_dir: str) -> list[str]:
    """Apply 1-3 random corruptors to random store files."""
    applied: list[str] = []
    files = artifact_files(cache_dir)
    if not files:
        return applied
    for _ in range(rng.randint(1, 3)):
        target = rng.choice(files)
        name, corruptor = CORRUPTORS[rng.randrange(len(CORRUPTORS))]
        try:
            corruptor(target)
        except (OSError, ValueError):
            continue  # already quarantined or too small to damage
        applied.append(f"{name}:{target.name[:12]}")
    return applied


def replay(
    client: SliceClient,
    sources: list[str],
    seed_line: int,
    truth: list[list[int]],
    context: dict,
) -> None:
    for index, source in enumerate(sources):
        try:
            result = client.slice(source, seed_line)
        except Exception as exc:  # noqa: BLE001 - any error is a violation
            raise Violation(
                f"request errored under chaos: {exc}",
                {**context, "source_index": index, "error": str(exc)},
            ) from exc
        if result["lines"] != truth[index]:
            raise Violation(
                "slice diverged from pre-chaos truth",
                {
                    **context,
                    "source_index": index,
                    "expected": truth[index],
                    "got": result["lines"],
                },
            )


def dump_corpus(corpus_dir: str, cache_dir: str, record: dict) -> None:
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    (corpus / "violation.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    store_copy = corpus / "store"
    if store_copy.exists():
        shutil.rmtree(store_copy)
    shutil.copytree(cache_dir, store_copy)
    print(f"failure corpus written to {corpus}", file=sys.stderr)


def run_phase_a(
    rng: random.Random,
    sources: list[str],
    seed_line: int,
    deadline: float,
    corpus_dir: str,
) -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-a-")
    tier, port, _ = spawn_tier(
        [
            "--workers",
            "1",
            "--memory-capacity",
            "2",
            "--scrub-interval",
            "0.5",
        ],
        cache_dir,
    )
    rounds = 0
    try:
        with SliceClient.connect("127.0.0.1", port) as client:
            truth = [
                client.slice(source, seed_line)["lines"]
                for source in sources
            ]
            while time.monotonic() < deadline:
                rounds += 1
                context = {
                    "phase": "A",
                    "round": rounds,
                    "corrupted": corrupt_some(rng, cache_dir),
                }
                try:
                    replay(client, sources, seed_line, truth, context)
                except Violation as violation:
                    dump_corpus(corpus_dir, cache_dir, violation.record)
                    raise SystemExit(f"FAIL: {violation}") from None
            health = client.health()
            store = health.get("store", {})
            if store.get("quarantined", 0) <= 0:
                dump_corpus(
                    corpus_dir,
                    cache_dir,
                    {"phase": "A", "rounds": rounds, "store": store},
                )
                raise SystemExit(
                    f"FAIL: chaos never tripped quarantine: {store}"
                )
            client.shutdown()
        tier.wait(timeout=30)
        print(
            f"ok: phase A, {rounds} rounds, zero wrong answers, "
            f"store {store}"
        )
    finally:
        stop_tier(tier)
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_phase_b(
    rng: random.Random,
    sources: list[str],
    seed_line: int,
    deadline: float,
    corpus_dir: str,
) -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-b-")
    tier, port, _ = spawn_tier(
        [
            "--shards",
            "2",
            "--workers",
            "1",
            "--memory-capacity",
            "2",
            "--probe-interval",
            str(PROBE_INTERVAL_S),
        ],
        cache_dir,
    )
    rounds = 0
    killed = False
    try:
        with SliceClient.connect("127.0.0.1", port) as client:
            truth = [
                client.slice(source, seed_line)["lines"]
                for source in sources
            ]
            while time.monotonic() < deadline:
                rounds += 1
                context = {
                    "phase": "B",
                    "round": rounds,
                    "corrupted": corrupt_some(rng, cache_dir),
                }
                if not killed and rounds >= 2:
                    health = client.health()
                    victim, shard = rng.choice(
                        sorted(health["shards"].items())
                    )
                    os.kill(shard["pid"], signal.SIGKILL)
                    killed = True
                    context["killed"] = victim
                    print(f"ok: killed shard {victim} (pid {shard['pid']})")
                try:
                    replay(client, sources, seed_line, truth, context)
                except Violation as violation:
                    dump_corpus(corpus_dir, cache_dir, violation.record)
                    raise SystemExit(f"FAIL: {violation}") from None
            heal_deadline = time.monotonic() + 30
            while time.monotonic() < heal_deadline:
                health = client.health()
                if (
                    health["healthy_shards"] == 2
                    and health.get("respawns_total", 0) >= 1
                ):
                    break
                time.sleep(PROBE_INTERVAL_S / 2)
            else:
                dump_corpus(
                    corpus_dir,
                    cache_dir,
                    {"phase": "B", "rounds": rounds, "health": health},
                )
                raise SystemExit(
                    f"FAIL: tier never healed to 2/2 after kill: {health}"
                )
            client.shutdown()
        tier.wait(timeout=30)
        print(
            f"ok: phase B, {rounds} rounds, zero wrong answers, "
            f"respawns_total {health['respawns_total']}, 2/2 healthy"
        )
    finally:
        stop_tier(tier)
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_phase_c(
    rng: random.Random,
    sources: list[str],
    seed_line: int,
    deadline: float,
    corpus_dir: str,
) -> None:
    cache_dir = tempfile.mkdtemp(prefix="repro-chaos-c-")
    tier, port, _ = spawn_tier(
        [
            "--shards",
            "2",
            "--workers",
            "1",
            "--memory-capacity",
            "2",
            "--replicate",
            "2",
            "--repair-interval",
            "1",
            "--probe-interval",
            str(PROBE_INTERVAL_S),
        ],
        cache_dir,
    )
    rounds = 0
    restarts = 0
    try:
        with SliceClient.connect("127.0.0.1", port) as client:
            truth = [
                client.slice(source, seed_line)["lines"]
                for source in sources
            ]
            while time.monotonic() < deadline:
                rounds += 1
                context = {
                    "phase": "C",
                    "round": rounds,
                    "corrupted": corrupt_some(rng, cache_dir),
                }
                # Seeded storm: some rounds roll the whole tier before
                # the replay, so warm state must survive the respawns.
                if restarts == 0 or rng.random() < 0.4:
                    summary = client.request(
                        "rolling_restart", retries=0, drain_timeout_s=30.0
                    )
                    if summary["failed"]:
                        dump_corpus(
                            corpus_dir,
                            cache_dir,
                            {**context, "restart": summary},
                        )
                        raise SystemExit(
                            f"FAIL: rolling restart lost a shard: {summary}"
                        )
                    restarts += len(summary["restarted"])
                    context["restarted"] = len(summary["restarted"])
                try:
                    replay(client, sources, seed_line, truth, context)
                except Violation as violation:
                    dump_corpus(corpus_dir, cache_dir, violation.record)
                    raise SystemExit(f"FAIL: {violation}") from None
            health = client.health()
            if health["healthy_shards"] != 2:
                dump_corpus(
                    corpus_dir,
                    cache_dir,
                    {"phase": "C", "rounds": rounds, "health": health},
                )
                raise SystemExit(
                    f"FAIL: tier not 2/2 after the storm: {health}"
                )
            client.shutdown()
        tier.wait(timeout=30)
        print(
            f"ok: phase C, {rounds} rounds, {restarts} shard restarts, "
            "zero wrong answers, 2/2 healthy"
        )
    finally:
        stop_tier(tier)
        shutil.rmtree(cache_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--budget",
        type=float,
        default=60.0,
        help="total campaign time box in seconds (default: 60)",
    )
    parser.add_argument(
        "--corpus-dir",
        default="chaos-corpus",
        help="where the failure corpus lands on violation",
    )
    args = parser.parse_args()

    rng = random.Random(args.seed)
    base = load_source("figure2")
    seed_line = marker_line(base, "tag", "seed")
    sources = [f"{base}\n// soak {i}\n" for i in range(SOURCE_VARIANTS)]

    start = time.monotonic()
    run_phase_a(
        rng,
        sources,
        seed_line,
        start + args.budget * 0.4,
        args.corpus_dir,
    )
    run_phase_b(
        rng,
        sources,
        seed_line,
        time.monotonic() + args.budget * 0.3,
        args.corpus_dir,
    )
    run_phase_c(
        rng,
        sources,
        seed_line,
        time.monotonic() + args.budget * 0.3,
        args.corpus_dir,
    )
    print(f"PASS (seed {args.seed}, {time.monotonic() - start:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
