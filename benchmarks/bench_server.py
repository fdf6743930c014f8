"""Slice-server trajectory: cold vs warm query latency per cache tier.

For each mid-size suite program the daemon answers the same ``stats``
query three ways:

* **cold** — empty cache, the request pays the full pipeline;
* **warm (memory)** — repeat against the same daemon, LRU hit;
* **warm (disk)** — a *restarted* daemon over the same artifact store,
  so the request maps the flat artifact instead of re-analyzing.

A second row family times the *first* ``explain``, ``why`` and
``chop`` each on its own freshly restarted daemon, i.e. against a
disk-warm entry nobody has queried yet — the case that once paid a
re-analysis and now walks the mapped artifact like a slice does.

Emits a human table (``results/server_latency.txt``) and a
machine-readable trajectory point (``results/BENCH_server.json``),
both stamped with the machine, Python and commit they came from.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

from _util import emit, environment, format_table
from repro.lang.source import marker_line
from repro.server.cache import AnalysisCache
from repro.server.daemon import SliceServer
from repro.server.store import DiskStore
from repro.suite.loader import load_source

#: Program -> the tagged line its explain/why/chop queries end at.
PROGRAMS = {
    "jtopas": "describe",
    "minixml": "childget",
    "minijavac": "opwrite",
    "parsegen": "addsym",
}
FIRST_CALL_METHODS = ("explain", "why", "chop")


def _request_line(program: str, method: str = "stats", **params) -> str:
    return json.dumps(
        {"id": 1, "method": method, "params": {"program": program, **params}}
    )


def _timed_request(server: SliceServer, line: str) -> tuple[float, dict]:
    start = time.perf_counter()
    response = json.loads(server.handle_line(line))
    elapsed_ms = (time.perf_counter() - start) * 1000
    assert response["ok"], response
    return elapsed_ms, response["result"]


def _first_call_ms(store: Path, program: str, method: str, **params) -> float:
    """One query against a daemon restarted over ``store``."""
    server = SliceServer(AnalysisCache(store=DiskStore(store)))
    try:
        elapsed_ms, result = _timed_request(
            server, _request_line(program, method, **params)
        )
    finally:
        server.close()
    assert result["origin"] == "disk", f"expected disk hit, got {result}"
    return elapsed_ms


def test_server_latency_trajectory(results_dir):
    rows = []
    points = {}
    with tempfile.TemporaryDirectory() as tmp:
        store_root = Path(tmp)
        for program, tag in PROGRAMS.items():
            line = _request_line(program)
            store = store_root / program

            cold_server = SliceServer(AnalysisCache(store=DiskStore(store)))
            cold_ms, result = _timed_request(cold_server, line)
            assert result["origin"] == "analyzed"
            memory_ms = min(
                _timed_request(cold_server, line)[0] for _ in range(3)
            )
            sink = marker_line(load_source(program), "tag", tag)
            _, sliced = _timed_request(
                cold_server, _request_line(program, "slice", line=sink)
            )
            cold_server.close()

            disk_ms = _first_call_ms(store, program, "stats")
            pair = {"source_line": min(sliced["lines"]), "sink_line": sink}
            first_call = {
                "explain": _first_call_ms(store, program, "explain", line=sink),
                "why": _first_call_ms(store, program, "why", **pair),
                "chop": _first_call_ms(store, program, "chop", **pair),
            }

            points[program] = {
                "cold_ms": round(cold_ms, 3),
                "warm_memory_ms": round(memory_ms, 3),
                "warm_disk_ms": round(disk_ms, 3),
                "memory_speedup": round(cold_ms / memory_ms, 1),
                "disk_speedup": round(cold_ms / disk_ms, 1),
                "first_call_disk_ms": {
                    method: round(ms, 3) for method, ms in first_call.items()
                },
            }
            rows.append(
                [
                    program,
                    f"{cold_ms:.1f}",
                    f"{memory_ms:.2f}",
                    f"{disk_ms:.1f}",
                    f"{cold_ms / memory_ms:.0f}x",
                    f"{cold_ms / disk_ms:.1f}x",
                ]
                + [f"{first_call[method]:.1f}" for method in FIRST_CALL_METHODS]
            )

    memory_speedups = [p["memory_speedup"] for p in points.values()]
    aggregate = {
        "programs": len(points),
        "median_memory_speedup": round(statistics.median(memory_speedups), 1),
        "min_memory_speedup": min(memory_speedups),
        "median_disk_speedup": round(
            statistics.median(p["disk_speedup"] for p in points.values()), 1
        ),
    }
    # The perf-guard contract: a cached query beats first analysis 10x.
    assert aggregate["min_memory_speedup"] >= 10

    env = environment()
    table = format_table(
        ["program", "cold ms", "mem ms", "disk ms", "mem speedup", "disk speedup"]
        + [f"1st {method} ms" for method in FIRST_CALL_METHODS],
        rows,
    )
    table += (
        "\n1st <method> = first query of that method on a daemon restarted "
        "over the store (disk-warm entry)"
        f"\ncpu_count={env['cpu_count']} python={env['python']} "
        f"commit={env['commit']}"
    )
    emit(results_dir, "server_latency.txt", table)
    (results_dir / "BENCH_server.json").write_text(
        json.dumps(
            {
                "benchmark": "server",
                "programs": points,
                "aggregate": aggregate,
                **env,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
