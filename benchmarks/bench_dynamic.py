"""Dynamic thin slicing over the Table 2 bugs (§7 extension).

The paper points at Zhang et al.'s result that *dynamic data
dependences alone* often locate real faults, and conjectures that the
dependences a thin slicer considers would suffice.  This bench runs each
injected bug under the tracing interpreter, seeds a dynamic slice at the
failure (uncaught exception or first wrong output line), and reports
whether the dynamic thin slice contains the injected statement and how
its size compares with the dynamic traditional slice.

It also records what interpretation costs: the wall time of a plain
``run_program`` and of a traced ``trace_program`` on ten suite programs,
from five caller stack depths (``results/BENCH_dynamic.json``; a ``perf``
test, deselect with ``-m "not perf"``).
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from _util import emit, environment, format_table
from repro.dynamic import (
    dynamic_thin_slice,
    dynamic_traditional_slice,
    trace_program,
)
from repro.frontend import compile_source
from repro.interp.interpreter import run_program
from repro.lang.source import marker_line
from repro.suite.bugs import bugs_for_table2
from repro.suite.loader import load_source


def _failure_seeds(trace, fixed_output: list[str]):
    """The error event (plus carried-value events), or the event of the
    first diverging output line."""
    if trace.error_event is not None:
        return [trace.error_event, *trace.error_field_events]
    for index, (got, want) in enumerate(zip(trace.output, fixed_output)):
        if got != want:
            return [trace.output_events[index]]
    if len(trace.output) != len(fixed_output) and trace.output_events:
        return [trace.output_events[-1]]
    return []


def _measure(bug):
    buggy_source = bug.apply()
    fixed_compiled = compile_source(
        load_source(bug.program), bug.program, include_stdlib=True
    )
    fixed = run_program(fixed_compiled.ast, fixed_compiled.table, list(bug.args))
    compiled = compile_source(buggy_source, bug.bug_id, include_stdlib=True)
    trace = trace_program(compiled.ast, compiled.table, list(bug.args))
    seeds = _failure_seeds(trace, fixed.output)
    assert seeds, bug.bug_id
    thin = dynamic_thin_slice(seeds)
    trad = dynamic_traditional_slice(seeds)
    buggy_line = marker_line(compiled.source.text, "tag", bug.marker)
    return {
        "bug": bug.bug_id,
        "thin_lines": len(thin.lines),
        "trad_lines": len(trad.lines),
        "thin_found": buggy_line in thin.lines,
        "trad_found": buggy_line in trad.lines,
        "events": trace.events_created,
        "needs_expansion": bug.needs_alias_expansion,
    }


@pytest.mark.parametrize("bug", bugs_for_table2(), ids=lambda b: b.bug_id)
def test_dynamic_measurement(benchmark, bug):
    row = benchmark.pedantic(_measure, args=(bug,), rounds=1, iterations=1)
    assert row["thin_lines"] <= row["trad_lines"]


def test_dynamic_table(benchmark, results_dir):
    def build():
        return [_measure(bug) for bug in bugs_for_table2()]

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    table = format_table(
        ["bug", "dyn thin", "dyn trad", "thin finds bug", "trad finds bug",
         "events"],
        [
            [
                r["bug"],
                r["thin_lines"],
                r["trad_lines"],
                "yes" if r["thin_found"] else "no",
                "yes" if r["trad_found"] else "no",
                r["events"],
            ]
            for r in rows
        ],
    )
    found = sum(r["thin_found"] for r in rows)
    summary = (
        f"\ndynamic thin finds the injected statement on {found}/{len(rows)} "
        "bugs (data dependences alone — the Zhang et al. observation);\n"
        "the misses are the aliasing/control cases that need expansion, "
        "exactly as in the static evaluation."
    )
    emit(
        results_dir,
        "dynamic_table.txt",
        "Dynamic thin slicing on the Table 2 bugs\n" + table + summary,
    )
    # Most bugs are data-reachable dynamically.
    assert found >= len(rows) * 0.6
    # Any bug needing aliasing expansion statically also eludes the
    # dynamic thin slice (the dependence taxonomy is the same).
    for r in rows:
        if r["needs_expansion"]:
            assert not r["thin_found"], r["bug"]


# The programs and inputs of tests/test_dynamic.py::TestTracerMatchesInterpreter.
TIMED_RUNS = [
    ("figure1", ["John Doe", "Jane Roe"]),
    ("figure5", []),
    ("rules", []),
    ("raytrace", []),
    ("jtopas", ['foo 12 "x y" +']),
    ("minixml", ["<a id='42'><b>hi</b></a>"]),
    ("xmlsec", ["Hello XML  Security", "7301"]),
    ("minijavac", ["x = 1 + 2 * 3; y = x - 4"]),
    ("minibuild", ["prop n v; target all = echo ${n}"]),
    ("parsegen", ["S -> a B | c ; B -> b | _"]),
]


# Extra caller frames each timing starts from; 0 is the caller's own depth.
PADDINGS = (0, 25, 50, 75, 100)


def _timed_at_depth(padding: int, run) -> float:
    """Seconds ``run`` takes when called ``padding`` frames deeper."""
    if padding:
        return _timed_at_depth(padding - 1, run)
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _ms_by_depth(run, repeats: int = 3) -> list[float]:
    """Best-of-``repeats`` ms at each of :data:`PADDINGS`.

    CPython 3.11 keeps frames in 16 kB chunks and frees a chunk when its
    first frame returns, so a hot loop whose calls straddle a chunk
    boundary allocates and frees a chunk on every call; raytrace runs
    2-4x slower in a band of caller depths, and where the band falls
    moves with any change to the interpreter's frames.  The paddings
    span about one chunk, so the record shows the caller's own depth,
    the best depth and the median over depths side by side.
    """
    best = [float("inf")] * len(PADDINGS)
    for _ in range(repeats):
        for i, padding in enumerate(PADDINGS):
            best[i] = min(best[i], _timed_at_depth(padding, run) * 1000)
    return best


def _summary(by_depth: list[float]) -> dict[str, object]:
    return {
        "caller_depth": round(by_depth[0], 3),
        "best": round(min(by_depth), 3),
        "median": round(statistics.median(by_depth), 3),
        "by_padding": [round(ms, 3) for ms in by_depth],
    }


@pytest.mark.perf
def test_interpreter_cost(results_dir):
    programs = {}
    for name, args in TIMED_RUNS:
        compiled = compile_source(load_source(name), name, include_stdlib=True)
        run = _summary(
            _ms_by_depth(lambda: run_program(compiled.ast, compiled.table, args))
        )
        trace = _summary(
            _ms_by_depth(lambda: trace_program(compiled.ast, compiled.table, args))
        )
        programs[name] = {
            "run_ms": run,
            "trace_ms": trace,
            "trace_over_run": round(trace["median"] / run["median"], 2),
        }
    totals = {
        f"{mode}_ms_total": {
            key: round(sum(p[f"{mode}_ms"][key] for p in programs.values()), 3)
            for key in ("caller_depth", "best", "median")
        }
        for mode in ("run", "trace")
    }
    payload = {
        "benchmark": "dynamic_interpreter_cost",
        "rounds": "best of 3 at each caller padding",
        "paddings": list(PADDINGS),
        **totals,
        "programs": programs,
        **environment(),
    }
    (results_dir / "BENCH_dynamic.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    assert all(
        p["run_ms"]["best"] > 0 and p["trace_ms"]["best"] > 0
        for p in programs.values()
    )
