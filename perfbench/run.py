"""Benchmark of the served slice path, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload warm_hot --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/workloads.py``): ``warm_hot``, ``warm_spill``.
A run sets up :data:`SETUPS` times: each set-up spawns a fresh ``repro
serve`` tier on a new store directory and ephemeral ports under
``.perfbench/``, warms it and drives it closed-loop from this one process
for an equal share of the timed window, then tears it down and confirms
that every tier process exited.  Every answer is checked byte for byte
against an in-process cold reference.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
traffic and reports the per-layer metrics instead (``perfbench/layers.py``).
Every metric is printed by name with its unit, then the verdicts and the
provenance; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups (fresh tiers) per run; ``setup_s`` is their median.
SETUPS = 3


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(workload: str, seed: int, flags: list[str]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "serve_flags": flags,
    }


def interleave(tier, plan) -> list:
    """The warming slices, one at a time, with owners taking turns.

    A shard that answers a cold slice pushes the new artifact to its
    replica in the background, and on its next cold slice fetches from
    that replica over the same peer connection.  The two share it without
    a lock; when they overlap, one can wait out the 10 s peer timeout.
    Alternating owners gives each push the other shard's cold slice to
    finish in.  An uneven ring split still puts some of one shard's cold
    slices back to back, and a stall there shows in ``setup_s``.  The
    order is a pure function of the ring; nothing waits on the tier.
    """
    queues: dict[str, list] = {}
    for request in plan.warming:
        source = plan.corpus.texts[request.text].source
        queues.setdefault(tier.owner(source), []).append(request)
    turns = sorted(queues.values(), key=len, reverse=True)
    return [
        request
        for round_ in itertools.zip_longest(*turns)
        for request in round_
        if request is not None
    ]


def execute(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import layers
    from perfbench.load import Feed, closed_loop
    from perfbench.tier import Tier
    from perfbench.workloads import PLANS

    work_dir = ROOT / ".perfbench"
    began = time.perf_counter()

    def phase(name: str) -> None:
        print(f"[{time.perf_counter() - began:7.2f}s] {name}", file=sys.stderr)

    plan = PLANS[workload](ROOT, seed)
    phase("inputs and references ready")

    # Each set-up's fresh tier serves an equal share of the timed window,
    # so one run's figures span several tiers (and shard port -> ring
    # placements), not one.
    tracer = layers.Tracer() if trace else None
    setups: list[float] = []
    colds: list = []
    window: list = []
    untraced: list = []
    wall = cpu_tier = cpu_self = 0.0
    rss: list[float] = []
    store: list[float] = []
    hygiene = []
    layer_values = None
    for attempt in range(SETUPS):
        run_dir = work_dir / f"run-{os.getpid()}-{attempt}"
        shutil.rmtree(run_dir, ignore_errors=True)
        tier = Tier(ROOT, run_dir, plan.shards)
        start = time.perf_counter()
        try:
            tier.start()
            spawned = time.perf_counter() - start
            samples, _ = closed_loop(
                tier.client, plan.corpus, Feed(iter(interleave(tier, plan))), 1,
                math.inf,
            )
            setups.append(time.perf_counter() - start)
            colds += samples
            phase(f"set-up {attempt + 1}: {setups[-1]:.2f}s (healthy after {spawned:.2f}s)")

            share = seconds / SETUPS
            feed = Feed(plan.main)
            cpu_tier0, cpu_self0 = tier.cpu_s(), time.process_time()
            if tracer is None:
                samples, spent = closed_loop(
                    tier.client, plan.corpus, feed, plan.connections, share
                )
                untraced += samples
            else:
                plain, spent = closed_loop(
                    tier.client, plan.corpus, feed, plan.connections, share / 2
                )
                with tracer.instrument_client():
                    traced, spent_t = closed_loop(
                        tier.client, plan.corpus, feed, plan.connections,
                        share / 2, tracer=tracer,
                    )
                untraced += plain
                samples, spent = plain + traced, spent + spent_t
            cpu_tier += tier.cpu_s() - cpu_tier0
            cpu_self += time.process_time() - cpu_self0
            window += samples
            wall += spent
            rss.append(tier.peak_rss_mb())
            store.append(tier.store_mb())
            phase(f"window {attempt + 1}: {len(samples)} requests")

            if tracer is not None and attempt == SETUPS - 1:
                stats = {
                    "daemons": tier.daemon_health(),
                    "daemon_stats": tier.daemon_stats(),
                    "router": tier.router_health(),
                }
                layer_values = layers.measure(
                    tier, plan, seed, tracer, untraced, colds + window, stats,
                    cpu={"tier": cpu_tier, "loadgen": cpu_self},
                )
                tracer.write(work_dir / "traces" / f"{workload}-seed{seed}.jsonl")
                phase("per-layer measurements done")
        finally:
            hygiene.append(tier.stop())
            shutil.rmtree(run_dir, ignore_errors=True)
        phase("tier stopped")

    # -- correctness gate: every answer against the cold reference --
    everything = colds + window
    plan.corpus.compute_references(s.request for s in everything)
    plan.corpus.close()
    failed = 0
    failures: list[str] = []
    for sample in everything:
        reference = plan.corpus.references.get(
            (sample.request.text, sample.request.line, sample.request.flavor)
        )
        if sample.error is not None or sample.body != reference:
            failed += 1
            if len(failures) < 5:
                what = sample.error or "answer differs from the cold reference"
                failures.append(f"{sample.request} -> {what}")
    phase("correctness gate done")

    latencies = {
        role: [s.ms for s in everything if s.request.role == role and s.error is None]
        for role in NEEDED
    }
    e2e = {
        "setup_s": statistics.median(setups),
        "warm_p50_ms": _quantile(latencies["warm"], 50),
        "warm_p99_ms": _quantile(latencies["warm"], 99),
        "cold_p50_ms": _quantile(latencies["cold"], 50),
        "throughput_rps": len(window) / wall,
        "peak_rss_mb": statistics.median(rss),
        "store_mb": statistics.median(store),
    }
    return {
        "e2e": e2e,
        "layers": layer_values,
        "attempted": len(everything),
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "observed": everything,
        "hygiene": hygiene,
        "setups": setups,
        "flags": tier.serve_flags(),
    }


#: Samples each role needs so that ten lie beyond its reported quantile
#: (p99 for warm, p50 for cold).
NEEDED = {"warm": 1000, "cold": 20}

#: Intended origin mix per workload: (role, origin, minimum share of the
#: role's answers).  Cold answers are the set-up's first slices.
INTENDED_MIX = {
    "warm_hot": [("cold", "analyzed", 1.0), ("warm", "memory", 0.99)],
    "warm_spill": [("cold", "analyzed", 1.0), ("warm", "disk", 0.95)],
}


def origin_mix(workload: str, samples) -> tuple[dict, list[str]]:
    """Origin counts per role in set-up and the timed window, and every
    way the workload's intended tier mix failed to hold (a changed mix is
    a changed workload, not a speed-up)."""
    counts: dict[str, dict[str, int]] = {}
    for sample in samples:
        role = counts.setdefault(sample.request.role, {})
        role[sample.origin] = role.get(sample.origin, 0) + 1
    problems = []
    for role, origin, share in INTENDED_MIX[workload]:
        seen = counts.get(role, {})
        got = seen.get(origin, 0) / max(1, sum(seen.values()))
        if got < share:
            problems.append(f"{role}: {origin} share {got:.3f} < {share}")
    return counts, problems


def spec() -> dict:
    """``BENCHMARK.json``: workload reasons, metric units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "server" / "daemon.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import MOVES
    from perfbench.tier import adopt_orphans, stop_children
    from perfbench.workloads import PLANS

    benchmark = spec()
    why = {w["name"]: w["why"] for w in benchmark["workloads"]}
    if args.workload not in PLANS or args.workload not in why:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # A terminated run unwinds like a failed one, so its tier and workers
    # are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    try:
        outcome = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        strays = stop_children()
    counts, problems = origin_mix(args.workload, outcome["observed"])
    for role, values in outcome["latencies"].items():
        if len(values) < NEEDED[role]:
            problems.append(f"{role}: {len(values)} samples < {NEEDED[role]}")
    forced = sum(h["forced_kills"] for h in outcome["hygiene"])
    attempted, failed = outcome["attempted"], outcome["failed"]

    print(f"workload {args.workload}: {why[args.workload]}")
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[kind]}
    values = outcome["layers"] if args.trace else outcome["e2e"]
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json {kind}")
    for name, value in values.items():
        note = f"  moves {MOVES[name]}" if args.trace else ""
        print(f"  {name:32s} {value:14.4f} {units[name]:6s}{note}")
    print(f"  {'error_rate':32s} {failed / attempted:14.4f} ratio")
    for role, samples in outcome["latencies"].items():
        print(f"  {role:5s} latency: n={len(samples)} p50={_quantile(samples, 50):.2f} "
              f"max={max(samples):.2f} ms")
    print(f"  set-ups: {[round(s, 3) for s in outcome['setups']]} s")
    print(f"  origin mix of set-up and the timed window: {counts} -> "
          + ("as intended" if not problems else "CHANGED: " + "; ".join(problems)))
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")
    print(f"  correctness gate: {attempted - failed}/{attempted} answers "
          "byte-identical to the cold reference")
    print(f"  process hygiene: {outcome['hygiene']} -> "
          + ("all tier processes exited on shutdown" if not forced else
             f"{forced} tier processes exited only after SIGKILL")
          + f"; {strays} other child processes killed at exit")
    print("  provenance: " + json.dumps(
        provenance(args.workload, args.seed, outcome["flags"]), sort_keys=True
    ))
    # A wrong answer, a changed origin mix or too few samples for a
    # reported quantile fails the run.  A tier process that outlives
    # SIGKILL raises in Tier.stop; one that needed SIGKILL to exit is a
    # shutdown defect of the tier (about one run in a hundred), printed
    # above but not failing the run, or the benchmark would fail at random.
    correct = failed == 0 and not problems
    print(f"  verdict: {'correct' if correct else 'NOT CORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
