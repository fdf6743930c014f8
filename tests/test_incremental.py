"""Incremental (warm-edit) serving: the byte-identity contract.

The engine's one non-negotiable: an edit served from an
:class:`repro.incremental.IncrementalSession` — a line shift relocated
from the previous artifact — must produce an artifact **byte-identical**
to a cold analysis of the same text.  Every other edit declines and
falls back to cold, never fabricates; served through the cache, its
cold result then anchors the next line shift.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import AnalyzeOptions, analyze
from repro.artifact.encode import content_key, encode_artifact
from repro.incremental import (
    DeclinedError,
    IncrementalSession,
    split_units,
)
from repro.suite.loader import load_source, program_names
from tests.conftest import make_server


def _cold_payload(
    source: str, options: AnalyzeOptions, filename: str = "<input>"
) -> bytes:
    analyzed = analyze(source, filename, options=options)
    return encode_artifact(analyzed, key=content_key(source, options))


def _session(source: str, options: AnalyzeOptions) -> IncrementalSession:
    analyzed = analyze(source, "<input>", options=options)
    return IncrementalSession.from_analyzed(
        analyzed,
        source,
        payload=encode_artifact(analyzed, key=content_key(source, options)),
    )


def _cache(tmp_path=None):
    from repro.server.cache import AnalysisCache
    from repro.server.fragments import FragmentStore
    from repro.server.store import DiskStore

    store = DiskStore(tmp_path) if tmp_path is not None else None
    return AnalysisCache(store=store, fragments=FragmentStore())


def _served(cache, source: str, options: AnalyzeOptions) -> str:
    """Serve ``source`` and check the bytes against cold; the origin."""
    entry, origin = cache.get_entry(source, "<input>", options)
    assert bytes(entry.view._buffer) == _cold_payload(source, options)
    return origin


def _method_spans(source: str):
    """Multi-line method/constructor units, where statement edits land."""
    shape = split_units(source)
    return [
        u
        for u in shape.units
        if u.kind == "method" and u.end_line > u.start_line
    ]


def _insert_stmt(source: str, index: int | None = None) -> str:
    """Insert a string-typed statement into a method body."""
    spans = _method_spans(source)
    unit = spans[(len(spans) // 2 if index is None else index) % len(spans)]
    lines = source.split("\n")
    lines.insert(unit.end_line - 1, '        String __t = "probe";')
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Byte-identity across the whole suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", program_names())
def test_single_function_edit_is_byte_identical(name):
    """A body edit declines and is served cold, byte-identical."""
    source = load_source(name)
    if not _method_spans(source):
        pytest.skip("no multi-line method to edit")
    options = AnalyzeOptions()
    edited = _insert_stmt(source)
    with pytest.raises(DeclinedError) as info:
        _session(source, options).apply_edit(edited)
    assert info.value.reason == "method-changed"
    cache = _cache()
    assert _served(cache, source, options) == "analyzed"
    assert _served(cache, edited, options) == "analyzed"


@pytest.mark.parametrize("name", program_names())
def test_comment_shift_relocates_byte_identical(name):
    """A zero-dirty edit (pure line shift) takes the relocate tier."""
    source = load_source(name)
    options = AnalyzeOptions()
    session = _session(source, options)
    edited = "// shifted\n" + source
    outcome = session.apply_edit(edited)
    assert outcome.tier == "relocate"
    assert outcome.functions_reanalyzed == 0
    assert outcome.payload == _cold_payload(edited, options)


def test_multi_edit_session_stays_byte_identical():
    """Successive served edits alternating body edits (cold) and line
    shifts (relocated from the latest anchor)."""
    source = load_source("figure1")
    options = AnalyzeOptions()
    cache = _cache()
    assert _served(cache, source, options) == "analyzed"
    current = source
    origins = []
    for step in range(4):
        if step % 2 == 0:
            lines = current.split("\n")
            spans = _method_spans(current)
            unit = spans[step % len(spans)]
            lines.insert(
                unit.end_line - 1, f'        String __s{step} = "e{step}";'
            )
            current = "\n".join(lines)
        else:
            current = f"// session step {step}\n" + current
        origins.append(_served(cache, current, options))
    assert origins == ["analyzed", "incremental", "analyzed", "incremental"]


def test_relocate_then_dirty_edit_uses_fresh_coordinates():
    """After a relocated shift and a cold body edit, the next shift is
    relocated from the body edit's artifact, not the older anchor."""
    source = load_source("figure1")
    options = AnalyzeOptions()
    cache = _cache()
    assert _served(cache, source, options) == "analyzed"
    shifted = "// shift one\n// shift two\n" + source
    assert _served(cache, shifted, options) == "incremental"
    edited = _insert_stmt(shifted)
    assert _served(cache, edited, options) == "analyzed"
    assert _served(cache, "// shift three\n" + edited, options) == "incremental"


def test_call_graph_shape_edit_is_byte_identical():
    """Duplicating a call statement adds a call site (new call-graph
    edges) — the edit declines and is served cold."""
    candidates = []
    for name in program_names():
        source = load_source(name)
        lines = source.split("\n")
        for unit in _method_spans(source):
            for i in range(unit.start_line, unit.end_line - 1):
                text = lines[i].strip()
                if (
                    text.endswith(");")
                    and "(" in text
                    and "=" not in text
                    and not text.startswith(("if", "while", "for", "return"))
                ):
                    candidates.append((name, i))
                    break
            if candidates and candidates[-1][0] == name:
                break
    assert candidates, "no call-statement line found in the suite"
    checked = 0
    for name, line_index in candidates[:3]:
        source = load_source(name)
        options = AnalyzeOptions()
        lines = source.split("\n")
        lines.insert(line_index, lines[line_index])
        edited = "\n".join(lines)
        try:
            _cold_payload(edited, options)
        except Exception:
            continue  # duplication happened to be invalid here
        cache = _cache()
        assert _served(cache, source, options) == "analyzed"
        assert _served(cache, edited, options) == "analyzed"
        checked += 1
    assert checked >= 1


# ---------------------------------------------------------------------------
# Declines: out-of-scope edits fall back to cold, session intact
# ---------------------------------------------------------------------------


def _still_relocates(session: IncrementalSession, source: str) -> None:
    options = AnalyzeOptions()
    shifted = "// still warm\n" + source
    outcome = session.apply_edit(shifted)
    assert outcome.payload == _cold_payload(shifted, options)


def test_signature_change_declines_structure():
    source = load_source("figure2")
    session = _session(source, AnalyzeOptions())
    # Renaming a method changes the structure fingerprint.
    assert "void main" in source
    edited = source.replace("void main", "void renamed_main", 1)
    with pytest.raises(DeclinedError) as info:
        session.apply_edit(edited)
    assert info.value.reason == "structure-changed"
    _still_relocates(session, source)


def test_parse_error_edit_declines_and_session_survives():
    source = load_source("figure1")
    session = _session(source, AnalyzeOptions())
    spans = _method_spans(source)
    lines = source.split("\n")
    lines.insert(spans[0].end_line - 1, "        String broken = ;")
    with pytest.raises(DeclinedError):
        session.apply_edit("\n".join(lines))
    # The session still serves line shifts afterwards.
    _still_relocates(session, source)


def test_type_error_edit_declines_frontend():
    """A type error inside a body declines before any frontend runs;
    the cold path reports the diagnostic."""
    source = load_source("figure1")
    session = _session(source, AnalyzeOptions())
    spans = _method_spans(source)
    lines = source.split("\n")
    lines.insert(spans[0].end_line - 1, "        String dup = undefined_x;")
    with pytest.raises(DeclinedError) as info:
        session.apply_edit("\n".join(lines))
    assert info.value.reason == "method-changed"
    _still_relocates(session, source)


# ---------------------------------------------------------------------------
# Serving tier: two-level cache key, counters, stats
# ---------------------------------------------------------------------------


def test_cache_serves_edits_incrementally(tmp_path):
    cache = _cache(tmp_path)
    source = load_source("figure1")
    options = AnalyzeOptions()

    _, origin = cache.get_entry(source, "fig1.mj", options)
    assert origin == "analyzed"
    _, origin = cache.get_entry(source, "fig1.mj", options)
    assert origin == "memory"

    shifted = "// moved\n" + source
    entry, origin = cache.get_entry(shifted, "fig1.mj", options)
    assert origin == "incremental"
    assert bytes(entry.view._buffer) == _cold_payload(
        shifted, options, filename="fig1.mj"
    )

    # The incremental result was promoted to both cache tiers.
    _, origin = cache.get_entry(shifted, "fig1.mj", options)
    assert origin == "memory"

    # A body edit is analyzed cold and anchors the next shift.
    edited = _insert_stmt(shifted)
    _, origin = cache.get_entry(edited, "fig1.mj", options)
    assert origin == "analyzed"
    edited2 = "// another\n" + edited
    _, origin = cache.get_entry(edited2, "fig1.mj", options)
    assert origin == "incremental"

    stats = cache.stats()
    assert stats["incremental_hits"] == 2
    frags = stats["fragments"]
    assert frags["incremental_hits"] == 2
    assert frags["sessions_seeded"] == 2
    assert frags["functions_reused"] >= 1
    assert frags["functions_reanalyzed"] == 0
    assert frags["tiers"] == {"relocate": 2}
    assert frags["declines"] == {"method-changed": 1, "no-session": 1}


def test_structure_changed_edit_falls_back_to_cold(tmp_path):
    cache = _cache(tmp_path)
    source = load_source("figure2")
    options = AnalyzeOptions()
    cache.get_entry(source, "fig2.mj", options)
    edited = source.replace("void main", "void renamed_main", 1)
    _, origin = cache.get_entry(edited, "fig2.mj", options)
    assert origin == "analyzed"  # new lineage, cold analysis
    # A same-structure edit of the *new* text is then served warm.
    edited2 = "// shift\n" + edited
    _, origin = cache.get_entry(edited2, "fig2.mj", options)
    assert origin == "incremental"


def test_daemon_health_reports_incremental_counters():
    import json


    server = make_server(None)
    try:
        source = load_source("figure1")
        for text in (source, "// shifted\n" + source):
            response = json.loads(
                server.handle_line(
                    json.dumps(
                        {
                            "id": 1,
                            "method": "stats",
                            "params": {"source": text},
                        }
                    )
                )
            )
            assert "result" in response, response
        health = json.loads(
            server.handle_line(json.dumps({"id": 2, "method": "health"}))
        )["result"]
        assert health["incremental_hits"] == 1
        assert health["functions_reused"] >= 1
        assert health["functions_reanalyzed"] == 0
        assert health["fragments"]["sessions"] == 1
    finally:
        server.close()


def test_daemon_no_incremental_flag_disables_fragments():
    import json


    server = make_server(None, incremental=False)
    try:
        source = load_source("figure1")
        for text in (source, _insert_stmt(source)):
            server.handle_line(
                json.dumps(
                    {"id": 1, "method": "stats", "params": {"source": text}}
                )
            )
        health = json.loads(
            server.handle_line(json.dumps({"id": 2, "method": "health"}))
        )["result"]
        assert "fragments" not in health
    finally:
        server.close()


# ---------------------------------------------------------------------------
# The edit-session fuzz oracle, pinned
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["figure1", "minixml"])
def test_edit_session_oracle_passes(name):
    from repro.fuzz import check_edit_session

    result = check_edit_session(
        load_source(name), random.Random(7), steps=4
    )
    assert result.verdict == "ok", (result.error_type, result.message)
    assert result.steps_checked >= 1


# ---------------------------------------------------------------------------
# Perf guard
# ---------------------------------------------------------------------------


@pytest.mark.perf
def test_warm_edit_beats_cold():
    """A warm edit must clearly beat a cold re-analysis (≥2x).

    The relocate tier rewrites a few artifact sections (typically tens
    of microseconds against tens of milliseconds cold); 2x only trips
    if the incremental path starts re-running the pipeline.  Absolute
    latencies vary too much on loaded 1-core CI boxes for a tighter
    bound — the honest envelopes live in results/BENCH_incremental.json.
    """
    name = "minijavac"
    source = load_source(name)
    options = AnalyzeOptions()
    session = _session(source, options)

    shifted = "// perf probe\n" + source
    cold_s = None
    start = time.perf_counter()
    analyze(shifted, "<input>", options=options)
    cold_s = time.perf_counter() - start

    warm_s = None
    current = shifted
    best = float("inf")
    for i in range(3):
        current = f"// perf probe {i}\n" + current
        start = time.perf_counter()
        outcome = session.apply_edit(current)
        best = min(best, time.perf_counter() - start)
        assert outcome.tier == "relocate"
    warm_s = best

    assert warm_s * 2 <= cold_s, (
        f"warm edit {warm_s * 1000:.1f}ms not 2x faster than cold "
        f"{cold_s * 1000:.1f}ms"
    )
