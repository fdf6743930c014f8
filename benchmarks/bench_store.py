"""Warm-disk artifact cost: flat mmap view vs materialized program.

The serving-tier question this answers: a daemon restarts (or a new
shard spins up) over a populated store — how fast is the first slice
for each stored program?  Two warm paths are measured end-to-end
(load + one thin slice from a mid-program seed):

* **flat** — map the ``.art`` file read-only, slice straight off the
  :class:`~repro.artifact.ArtifactView` arrays (the production slice
  path: nothing is reconstructed);
* **rich** — map the same file, materialize the
  :class:`~repro.AnalyzedProgram` with ``to_analyzed_program()`` (a
  re-analysis of the embedded source: artifacts store no object
  graph) and slice that — what ``explain``/``why``/``chop`` pay on a
  view-only entry.

Since artifacts carry crc32 digests, the flat load also pays an
integrity check, and the second question measured here is what each
:data:`~repro.artifact.VERIFY_LEVELS` level costs on the same warm
path: ``none`` (structural parse only — the old behavior), ``header``
(one whole-file crc32 pass — the serving default), and ``deep``
(per-section digests plus structural bounds — the scrubber's level).

Corpus: every suite program plus the two mid-size generated programs
from ``tests/scale/``.  Emits ``results/store.txt`` and
``results/BENCH_store.json``; asserts the flat path is ≥3x faster on
the largest suite program (the acceptance threshold the CI perf guard
also enforces — mmap vs re-analysis is not core-count dependent, so
the assertion runs everywhere).
"""

from __future__ import annotations

import json
import time

from _util import REPO, emit, environment, format_table
from repro import AnalyzeOptions, analyze
from repro.artifact import ArtifactView, content_key, encode_artifact
from repro.server.store import DiskStore
from repro.slicing.flatslice import flat_slicer
from repro.suite.harness import SUITE_PROGRAMS
from repro.suite.loader import load_source

SCALE_DIR = REPO / "tests" / "scale"
SCALE_FILES = ["scale_s101_x6.mj", "scale_s202_x6.mj"]
REPEATS = 5
SPEEDUP_FLOOR = 3.0


def _corpus() -> list[tuple[str, str]]:
    entries = [(name, load_source(name)) for name in SUITE_PROGRAMS]
    for filename in SCALE_FILES:
        entries.append((filename.removesuffix(".mj"), (SCALE_DIR / filename).read_text()))
    return entries


def _seed_line(view: ArtifactView) -> int:
    """A mid-program statement line (same seed for both paths)."""
    lines = sorted(
        {
            view.node_line(node)
            for node in view.graph_nodes()
            if view.is_statement(node) and view.node_line(node) > 0
        }
    )
    return lines[len(lines) // 2]


def _flat_warm_ms(
    store: DiskStore, key: str, seed: int, verify: str = "none"
) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        view = store.load_view(key, verify=verify)
        result = flat_slicer(view, "thin").slice_from_line(seed)
        assert result.lines
        best = min(best, (time.perf_counter() - start) * 1000)
        view.close()
    return best


def _rich_warm_ms(store: DiskStore, key: str, seed: int) -> float:
    """Materialize the rich program from the stored artifact, slice it."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        view = store.load_view(key)
        analyzed = view.to_analyzed_program()
        result = analyzed.thin_slicer.slice_from_line(seed)
        assert result.lines
        best = min(best, (time.perf_counter() - start) * 1000)
        view.close()
    return best


def test_store_warm_path(results_dir, tmp_path):
    flat_store = DiskStore(tmp_path / "flat")

    rows = []
    programs = {}
    for name, source in _corpus():
        options = AnalyzeOptions()
        key = content_key(source, options)
        start = time.perf_counter()
        analyzed = analyze(source, f"{name}.mj", options=options)
        analyze_ms = (time.perf_counter() - start) * 1000

        flat_store.save_bytes(key, encode_artifact(analyzed, key=key))
        art_bytes = flat_store.path_for(key).stat().st_size

        probe = flat_store.load_view(key)
        seed = _seed_line(probe)
        probe.close()

        flat_ms = _flat_warm_ms(flat_store, key, seed)
        header_ms = _flat_warm_ms(flat_store, key, seed, verify="header")
        deep_ms = _flat_warm_ms(flat_store, key, seed, verify="deep")
        rich_ms = _rich_warm_ms(flat_store, key, seed)
        speedup = rich_ms / flat_ms
        programs[name] = {
            "seed_line": seed,
            "analyze_ms": round(analyze_ms, 1),
            "art_kb": round(art_bytes / 1024, 1),
            "flat_warm_ms": round(flat_ms, 3),
            "verify_header_ms": round(header_ms, 3),
            "verify_deep_ms": round(deep_ms, 3),
            "verify_header_overhead_pct": round(
                (header_ms / flat_ms - 1) * 100, 1
            ),
            "verify_deep_overhead_pct": round(
                (deep_ms / flat_ms - 1) * 100, 1
            ),
            "rich_warm_ms": round(rich_ms, 3),
            "speedup": round(speedup, 2),
        }
        rows.append(
            [
                name,
                f"{art_bytes / 1024:.0f}KB",
                f"{flat_ms:.2f}ms",
                f"{header_ms:.2f}ms",
                f"{deep_ms:.2f}ms",
                f"{rich_ms:.2f}ms",
                f"{speedup:.1f}x",
            ]
        )

    largest = max(
        SUITE_PROGRAMS, key=lambda name: programs[name]["art_kb"]
    )
    measured_on = environment()
    payload = {
        "benchmark": "store",
        **measured_on,
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "largest_suite_program": largest,
        "programs": programs,
    }
    table = format_table(
        [
            "program",
            "art",
            "flat warm",
            "+header",
            "+deep",
            "rich warm",
            "speedup",
        ],
        rows,
    )
    table += (
        f"\nwarm path = load + one thin slice, best of {REPEATS}; "
        f"floor: flat >= {SPEEDUP_FLOOR:.0f}x on {largest}\n"
        "+header/+deep = the same warm path at each verify level "
        "(header = whole-file crc32, the serving default; deep = "
        "per-section digests + structural bounds, the scrubber level)\n"
        "rich warm = the same load + to_analyzed_program() (re-analysis) "
        "+ a rich thin slice\n"
    )
    table += "  ".join(f"{k}={v}" for k, v in measured_on.items()) + "\n"
    emit(results_dir, "store.txt", table)
    (results_dir / "BENCH_store.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    assert programs[largest]["speedup"] >= SPEEDUP_FLOOR, programs[largest]
