"""Cold-path benchmark: full-pipeline latency and the solver's share.

Measures, for the four mid-size suite programs and the four
grammar-generated ``tests/scale/`` programs:

* **cold analysis** — :func:`repro.analyze` end to end (parse →
  type-check → IR → SSA → points-to → SDG), best of 7 in-process runs;
  suite programs are compared against the pre-optimization baseline
  recorded below;
* **solver** — :func:`repro.analysis.pointsto.solve_points_to` alone on
  the same IR, best of 3, and its share of the cold analysis;
* **tabulation demand** (suite programs only) — path edges for a
  single-seed slice under demand-driven summaries vs whole-program
  summaries.  Whole-program summaries of the scale programs take
  minutes (``scale_s303_x14``: ~100 s, 9.0M path edges), so those rows
  leave the columns empty.

Emits a human table (``results/pointsto_cold_path.txt``) and a
machine-readable point (``results/BENCH_pointsto.json``) that records
``cpu_count``, the Python version and the commit it was measured at.

Baseline methodology: commit 013a119 (before the first cold-path
optimization round), same best-of-7 in-process loop, same machine
class.  Wall-clock noise on shared runners is ±30%, so treat
per-program speedups as indicative and the cross-program median as the
headline number.
"""

from __future__ import annotations

import json
import statistics
import time

from _util import REPO, emit, environment, format_table
from repro import analyze
from repro.analysis.modref import compute_modref
from repro.analysis.pointsto import solve_points_to
from repro.frontend import compile_source
from repro.sdg.sdg import build_sdg
from repro.slicing.tabulation import TabulationSlicer
from repro.suite.loader import load_source

SCALE_DIR = REPO / "tests" / "scale"

SUITE = ["jtopas", "minixml", "minijavac", "parsegen"]
SCALE = ["scale_s101_x6", "scale_s202_x6", "scale_s303_x14", "scale_s404_x14"]

#: Cold-analysis latency (ms) at commit 013a119, best of 7 in-process.
PRE_PR_BASELINE_MS = {
    "jtopas": 51.4,
    "minixml": 87.9,
    "minijavac": 88.7,
    "parsegen": 116.9,
}

RUNS = 7


def _source(name: str) -> str:
    if name in SCALE:
        return (SCALE_DIR / f"{name}.mj").read_text()
    return load_source(name)


def _best_of(thunk, runs: int = RUNS) -> float:
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        thunk()
        best = min(best, (time.perf_counter() - start) * 1000)
    return best


def _demand_path_edges(compiled, pts) -> tuple[int, int]:
    """(demand, full) path-edge counts for the busiest sampled seed."""
    modref = compute_modref(compiled.ir, pts)
    sdg = build_sdg(compiled, pts, heap_mode="params", modref=modref)
    lines = sorted(
        {
            instr.position.line
            for instr in compiled.ir.all_instructions()
            if instr.position.line
        }
    )
    best_line, best_edges = None, 0
    for line in lines[:: max(1, len(lines) // 20)]:
        probe = TabulationSlicer(compiled, sdg)
        probe.slice_from_line(line)
        if probe.path_edge_count > best_edges:
            best_line, best_edges = line, probe.path_edge_count
    full = TabulationSlicer(compiled, sdg)
    full.compute_summaries()
    if best_line is not None:
        full.slice_from_line(best_line)
    return best_edges, full.path_edge_count


def test_cold_path_benchmark(results_dir):
    rows = []
    points = {}
    speedups = []
    for name in SUITE + SCALE:
        source = _source(name)
        cold_ms = _best_of(lambda: analyze(source, name))

        compiled = compile_source(source, name, include_stdlib=True)
        solver_ms = _best_of(lambda: solve_points_to(compiled.ir), runs=3)

        point = {
            "cold_ms": round(cold_ms, 1),
            "solver_ms": round(solver_ms, 1),
            "solver_share": round(solver_ms / cold_ms, 2),
        }
        baseline = PRE_PR_BASELINE_MS.get(name)
        demand_edges = full_edges = "-"
        if baseline is not None:
            speedup = baseline / cold_ms
            speedups.append(speedup)
            pts = solve_points_to(compiled.ir)
            demand_edges, full_edges = _demand_path_edges(compiled, pts)
            point.update(
                baseline_ms=baseline,
                speedup=round(speedup, 2),
                path_edges_demand=demand_edges,
                path_edges_full=full_edges,
            )
        points[name] = point
        rows.append(
            [
                name,
                "-" if baseline is None else f"{baseline:.1f}",
                f"{cold_ms:.1f}",
                "-" if baseline is None else f"{point['speedup']:.2f}x",
                f"{solver_ms:.1f}",
                f"{100 * point['solver_share']:.0f}%",
                demand_edges,
                full_edges,
            ]
        )

    median_speedup = statistics.median(speedups)
    measured_on = environment()
    table = format_table(
        [
            "program",
            "baseline ms",
            "cold ms",
            "speedup",
            "solver ms",
            "solver %",
            "PE demand",
            "PE full",
        ],
        rows,
    )
    table += f"\n\nmedian cold-path speedup (suite): {median_speedup:.2f}x"
    table += "\n" + "  ".join(f"{k}={v}" for k, v in measured_on.items())
    emit(results_dir, "pointsto_cold_path.txt", table)

    payload = {
        "benchmark": "pointsto_cold_path",
        "baseline_commit": "013a119",
        "runs": RUNS,
        "programs": points,
        "median_speedup": round(median_speedup, 2),
        **measured_on,
    }
    (results_dir / "BENCH_pointsto.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
