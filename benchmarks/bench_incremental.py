"""Incremental-analysis trajectory: cold vs warm-hit vs warm-edit.

For each mid-size suite program, three latencies:

* **cold** — full pipeline on an edited source (what every edit cost
  before the incremental engine);
* **warm hit** — unchanged source served from the daemon's memory tier
  (the floor: no analysis at all);
* **warm edit** — the same edit served by a live
  :class:`repro.incremental.IncrementalSession`, split by tier:
  ``relocate`` (comment shift, zero dirty functions) and ``delta``
  (one-function statement insert, warm-started solver).

Every warm-edit payload is asserted byte-identical to the cold
artifact before its timing counts — a fast wrong answer is no answer.

Emits a human table (``results/incremental.txt``) and a trajectory
point (``results/BENCH_incremental.json``).  The relative thresholds
(relocate ≥2x under cold, delta not past cold) are asserted only on
multi-core machines — a loaded 1-core CI box cannot hold a latency
envelope honestly; ``thresholds_enforced`` records the decision.
"""

from __future__ import annotations

import json
import os
import time

from _util import emit, format_table
from repro import AnalyzeOptions, analyze
from repro.artifact.encode import content_key, encode_artifact
from repro.incremental import IncrementalSession, split_units

PROGRAMS = ["jtopas", "minixml", "minijavac", "parsegen"]
REPEATS = 3


def _cold(source: str, options: AnalyzeOptions):
    analyzed = analyze(source, "<input>", options=options)
    payload = encode_artifact(analyzed, key=content_key(source, options))
    return analyzed, payload


def _edit_stmt(source: str) -> str:
    spans = [
        u
        for u in split_units(source).units
        if u.kind == "method" and u.end_line > u.start_line
    ]
    unit = spans[len(spans) // 2]
    lines = source.split("\n")
    lines.insert(unit.end_line - 1, '        String __bench = "b";')
    return "\n".join(lines)


def _best(thunk) -> float:
    return min(_timed(thunk) for _ in range(REPEATS))


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return (time.perf_counter() - start) * 1000


def test_incremental_trajectory(results_dir):
    from repro.suite.loader import load_source

    options = AnalyzeOptions()
    rows = []
    points = {}
    for program in PROGRAMS:
        source = load_source(program)
        analyzed, payload = _cold(source, options)

        # Cold: what a one-statement edit costs without the engine.
        edited = _edit_stmt(source)
        cold_ms = _best(lambda: analyze(edited, "<input>", options=options))
        edited_cold, edited_payload = _cold(edited, options)

        # Warm hit: artifact bytes already in memory, the serving tier
        # just opens a view (the daemon-level number, with dispatch on
        # top, lives in BENCH_server.json).
        from repro.artifact import ArtifactView

        warm_hit_ms = _best(
            lambda: ArtifactView.from_buffer(payload).close()
        )

        # Warm edit, relocate tier: pure line shift.
        shifted = "// bench shift\n" + source
        _, shifted_payload = _cold(shifted, options)
        relocate_samples = []
        for i in range(REPEATS):
            session = IncrementalSession.from_analyzed(
                analyzed, source, payload=payload
            )
            start = time.perf_counter()
            outcome = session.apply_edit(shifted)
            relocate_samples.append((time.perf_counter() - start) * 1000)
            assert outcome.tier == "relocate"
            assert outcome.payload == shifted_payload
        relocate_ms = min(relocate_samples)

        # Warm edit, delta tier: one dirty function, solver warm-start.
        delta_samples = []
        tier = None
        reused = reanalyzed = 0
        for i in range(REPEATS):
            session = IncrementalSession.from_analyzed(
                analyzed, source, payload=payload
            )
            start = time.perf_counter()
            outcome = session.apply_edit(edited)
            delta_samples.append((time.perf_counter() - start) * 1000)
            assert outcome.payload == edited_payload
            tier = outcome.tier
            reused = outcome.functions_reused
            reanalyzed = outcome.functions_reanalyzed
        delta_ms = min(delta_samples)

        rows.append(
            [
                program,
                f"{cold_ms:.1f}",
                f"{warm_hit_ms:.3f}",
                f"{relocate_ms:.2f}",
                f"{delta_ms:.1f}",
                tier,
                f"{reused}/{reused + reanalyzed}",
            ]
        )
        points[program] = {
            "cold_ms": round(cold_ms, 2),
            "warm_hit_ms": round(warm_hit_ms, 4),
            "warm_edit_relocate_ms": round(relocate_ms, 3),
            "warm_edit_delta_ms": round(delta_ms, 2),
            "delta_tier": tier,
            "functions_reused": reused,
            "functions_reanalyzed": reanalyzed,
        }

    cpu_count = os.cpu_count() or 1
    thresholds_enforced = cpu_count >= 2
    payload_json = {
        "benchmark": "incremental",
        "programs": points,
        "cpu_count": cpu_count,
        "thresholds_enforced": thresholds_enforced,
        "byte_identity_checked": True,
    }
    table = format_table(
        [
            "program",
            "cold_ms",
            "warm_hit_ms",
            "relocate_ms",
            "edit_ms",
            "edit_tier",
            "fns reused",
        ],
        rows,
    )
    table += (
        f"\n\ncpu_count={cpu_count} "
        f"thresholds_enforced={thresholds_enforced}\n"
        "every warm-edit payload asserted byte-identical to cold\n"
    )
    emit(results_dir, "incremental.txt", table)
    (results_dir / "BENCH_incremental.json").write_text(
        json.dumps(payload_json, indent=2, sort_keys=True) + "\n"
    )

    if thresholds_enforced:
        # Measured on an unloaded box: relocate ~4-5x under cold, delta
        # ~1.2x under (the solver warm-start saves real work, but SDG
        # rebuild + re-encode still dominate on suite-size programs).
        # Thresholds sit at ~half the measured headroom.
        for program, point in points.items():
            assert point["warm_edit_relocate_ms"] * 2 <= point["cold_ms"], (
                f"{program}: relocate edit {point['warm_edit_relocate_ms']}ms "
                f"not 2x under cold {point['cold_ms']}ms"
            )
            assert point["warm_edit_delta_ms"] <= point["cold_ms"] * 1.1, (
                f"{program}: delta edit {point['warm_edit_delta_ms']}ms "
                f"regressed past cold {point['cold_ms']}ms"
            )
