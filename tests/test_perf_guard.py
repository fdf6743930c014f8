"""Performance regression guards.

Loose wall-clock bounds that catch accidental quadratic blow-ups in the
analysis pipeline (e.g. an edge-dedup regression or a worklist that
stops deduplicating).  Bounds are ~10x typical measured times, so they
only fire on genuine regressions, not machine noise.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.pointsto import solve_points_to
from repro.frontend import compile_source
from repro.sdg.sdg import build_sdg
from repro.slicing.thin import ThinSlicer
from repro.suite.harness import SUITE_PROGRAMS
from repro.suite.loader import load_source
from repro.suite.synthetic import generate_layered_program


@pytest.mark.perf
def test_whole_suite_analysis_under_budget():
    start = time.perf_counter()
    for name in SUITE_PROGRAMS:
        compiled = compile_source(load_source(name), name, include_stdlib=True)
        pts = solve_points_to(compiled.ir)
        build_sdg(compiled, pts)
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"suite analysis took {elapsed:.1f}s (typical ~2s)"


@pytest.mark.perf
def test_synthetic_program_analysis_under_budget():
    source = generate_layered_program(12, 6)  # ~2.8k SDG statements
    start = time.perf_counter()
    compiled = compile_source(source, "syn.mj", include_stdlib=True)
    pts = solve_points_to(compiled.ir)
    sdg = build_sdg(compiled, pts)
    elapsed = time.perf_counter() - start
    assert elapsed < 15, f"synthetic analysis took {elapsed:.1f}s (typical ~0.5s)"


@pytest.mark.perf
def test_warm_cached_query_10x_faster_than_cold(tmp_path):
    """A cache hit must skip the pipeline: ≥10x faster than first analysis.

    Drives the real server dispatch path (JSON in, JSON out) on a
    mid-size suite program.  The cold request pays parse → type-check →
    SSA → points-to → SDG; the warm request is a memory hit.
    """
    import json

    from repro.server.cache import AnalysisCache
    from repro.server.daemon import SliceServer
    from repro.server.store import DiskStore

    server = SliceServer(AnalysisCache(store=DiskStore(tmp_path)))
    request = json.dumps(
        {"id": 1, "method": "stats", "params": {"program": "minijavac"}}
    )
    try:
        start = time.perf_counter()
        cold_response = json.loads(server.handle_line(request))
        cold = time.perf_counter() - start
        assert cold_response["result"]["origin"] == "analyzed"

        warm = min(
            _timed(lambda: server.handle_line(request)) for _ in range(3)
        )
        assert json.loads(server.handle_line(request))["result"]["origin"] == "memory"
    finally:
        server.close()
    assert warm * 10 <= cold, (
        f"warm query {warm * 1000:.1f}ms not 10x faster than cold "
        f"{cold * 1000:.1f}ms"
    )


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


#: Cold-path envelope per program (ms), ~10x the best-of times measured
#: after the solver/frontend optimization round (jtopas ~21ms, minixml
#: ~54ms, minijavac ~51ms, parsegen ~75ms) so only a genuine cold-path
#: regression — not scheduler noise — can trip it.
COLD_ENVELOPE_MS = {
    "jtopas": 300,
    "minixml": 600,
    "minijavac": 600,
    "parsegen": 800,
}


@pytest.mark.perf
@pytest.mark.parametrize("name", sorted(COLD_ENVELOPE_MS))
def test_cold_analysis_envelope(name):
    from repro import analyze
    from repro.suite.loader import load_source

    source = load_source(name)
    best = min(_timed(lambda: analyze(source, name)) for _ in range(3))
    budget = COLD_ENVELOPE_MS[name] / 1000
    assert best < budget, (
        f"cold analysis of {name} took {best * 1000:.0f}ms "
        f"(envelope {COLD_ENVELOPE_MS[name]}ms)"
    )


def _salted(base: str, index: int) -> str:
    """Distinct source text (distinct fingerprint) per task, same cost."""
    return f"{base}\n// cold-throughput salt {index}\n"


@pytest.mark.perf
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="process-executor speedup needs at least 2 cores",
)
def test_process_executor_beats_threads_on_cold_analyses():
    """Multi-core guard: ≥1.3x cold throughput at 2 process workers.

    Two threads running ``analyze`` serialize under the GIL; two worker
    processes do not.  Salted sources keep every analysis cold, and
    pool workers warm themselves up before their ready handshake, so
    the comparison measures analysis throughput, not spawn/import cost
    (which a long-lived daemon pays once).
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro import analyze
    from repro.parallel import ProcessPool, analyze_artifact

    base = load_source("minixml")
    tasks = 4
    # Best of several rounds per side: a wall-clock ratio on a shared
    # machine is only as good as its least-disturbed round.
    rounds = 3

    def salted(round_index, i):
        return _salted(base, round_index * tasks + i)

    thread_times = []
    with ThreadPoolExecutor(max_workers=2) as threads:
        for r in range(rounds):
            start = time.perf_counter()
            list(
                threads.map(
                    lambda i: analyze(salted(r, i), f"salt{i}.mj"),
                    range(tasks),
                )
            )
            thread_times.append(time.perf_counter() - start)
    thread_s = min(thread_times)

    process_times = []
    with ProcessPool(workers=2) as pool:
        pool.prestart(wait=True)
        with ThreadPoolExecutor(max_workers=2) as fan:
            for r in range(rounds):
                start = time.perf_counter()
                list(
                    fan.map(
                        lambda i: pool.run(
                            analyze_artifact, salted(r, i), f"salt{i}.mj"
                        ),
                        range(tasks),
                    )
                )
                process_times.append(time.perf_counter() - start)
    process_s = min(process_times)

    assert process_s * 1.3 <= thread_s, (
        f"2 process workers took {process_s:.2f}s vs {thread_s:.2f}s for "
        f"2 threads — expected >=1.3x cold throughput"
    )


#: The checked-in scale corpus (tests/scale/): grammar-generated
#: programs whose cold analyses run well past the hand-written suite
#: (~0.4–1.0s vs the suite's ~0.2s ceiling), so these guards exercise
#: non-trivial points-to/SDG workloads.  Envelopes are ~10x measured.
SCALE_ENVELOPE_MS = {
    "scale_s101_x6.mj": 5_000,
    "scale_s202_x6.mj": 5_000,
    "scale_s303_x14.mj": 8_000,
    "scale_s404_x14.mj": 12_000,
}

_SCALE_DIR = os.path.join(os.path.dirname(__file__), "scale")


@pytest.mark.perf
@pytest.mark.parametrize("name", sorted(SCALE_ENVELOPE_MS))
def test_scale_corpus_analysis_envelope(name):
    from repro import analyze

    with open(os.path.join(_SCALE_DIR, name)) as handle:
        source = handle.read()
    elapsed = _timed(lambda: analyze(source, name))
    budget = SCALE_ENVELOPE_MS[name] / 1000
    assert elapsed < budget, (
        f"cold analysis of scale-corpus {name} took {elapsed * 1000:.0f}ms "
        f"(envelope {SCALE_ENVELOPE_MS[name]}ms)"
    )


def test_scale_corpus_matches_generator():
    """Every corpus file regenerates byte-identically from its manifest
    entry — the grammar's determinism contract extends to the scale
    dial, so a grammar change that silently rewrites the corpus (and
    its measured costs) fails here instead of skewing the perf guards."""
    import json

    from repro.fuzz.grammar import generate_program

    with open(os.path.join(_SCALE_DIR, "MANIFEST.json")) as handle:
        manifest = json.load(handle)
    assert len(manifest) >= 3
    for entry in manifest:
        with open(os.path.join(_SCALE_DIR, entry["file"])) as handle:
            checked_in = handle.read()
        regenerated = generate_program(entry["seed"], scale=entry["scale"])
        assert regenerated == checked_in, (
            f"{entry['file']} no longer matches "
            f"generate_program({entry['seed']}, scale={entry['scale']})"
        )
        assert len(checked_in.splitlines()) == entry["lines"]


@pytest.mark.perf
def test_flat_warm_disk_3x_faster_than_pickle(tmp_path, monkeypatch):
    """The zero-copy acceptance bar: a warm-disk load + slice over the
    mmap-backed flat artifact must be ≥3x faster than materializing
    the rich program from the same stored artifact
    (``to_analyzed_program()``, a re-analysis of the embedded source)
    and slicing that, on the largest suite program.  (Measured gap is
    several hundred x, so 3x only trips if the flat path starts
    materializing — which the patched escape hatch below also refuses
    structurally.)  The name predates the comparator; CI's perf-guards
    job selects the test by it."""
    from repro import AnalyzeOptions, analyze
    from repro.artifact import ArtifactView, content_key, encode_artifact
    from repro.server.store import DiskStore
    from repro.slicing.flatslice import flat_slicer

    name = "parsegen"
    source = load_source(name)
    options = AnalyzeOptions()
    key = content_key(source, options)
    analyzed = analyze(source, f"{name}.mj", options=options)
    store = DiskStore(tmp_path)
    store.save_bytes(key, encode_artifact(analyzed, key=key))
    seed = sorted(
        {i.position.line for i in analyzed.compiled.ir.all_instructions()
         if i.position.line}
    )[50]

    def flat_warm():
        view = store.load_view(key)
        assert flat_slicer(view, "thin").slice_from_line(seed).lines
        view.close()

    def rich_warm():
        view = store.load_view(key)
        restored = view.to_analyzed_program()
        assert restored.thin_slicer.slice_from_line(seed).lines
        view.close()

    def never_materialize(view):
        raise AssertionError("flat warm path materialized the view")

    with monkeypatch.context() as patch:
        patch.setattr(ArtifactView, "to_analyzed_program", never_materialize)
        flat_s = min(_timed(flat_warm) for _ in range(3))
    rich_s = min(_timed(rich_warm) for _ in range(3))
    assert flat_s * 3 <= rich_s, (
        f"flat warm path {flat_s * 1000:.2f}ms not 3x faster than "
        f"materialize + rich slice {rich_s * 1000:.2f}ms"
    )


@pytest.mark.perf
def test_thousand_slices_under_budget():
    compiled = compile_source(
        load_source("minijavac"), "minijavac", include_stdlib=True
    )
    pts = solve_points_to(compiled.ir)
    sdg = build_sdg(compiled, pts)
    slicer = ThinSlicer(compiled, sdg)
    lines = sorted(
        {i.position.line for i in compiled.ir.all_instructions() if i.position.line}
    )
    start = time.perf_counter()
    count = 0
    while count < 1000:
        for line in lines:
            slicer.slice_from_line(line)
            count += 1
            if count >= 1000:
                break
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"1000 slices took {elapsed:.1f}s (typical ~2s)"
