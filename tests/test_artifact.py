"""The flat artifact format: round-trip, differential, and rejection.

The contract under test is the tentpole guarantee of the zero-copy
store: a slice computed over an :class:`~repro.artifact.ArtifactView`
(no object graph, arrays mapped straight off the encoded bytes) must be
*byte-identical* on the wire to the same slice computed over the rich
:class:`~repro.AnalyzedProgram`, for every suite program and both
flavors.  Alongside it: the escape hatch back to the object graph, the
stale/corrupt rejection paths a disk store depends on, and the
determinism guarantees that retired the ``_NIL`` hash substitutions.
"""

from __future__ import annotations

import hashlib
import os
import struct
import subprocess
import sys

import pytest

from repro import AnalyzeOptions, analyze
from repro.artifact import (
    ARTIFACT_FORMAT,
    MAGIC,
    ArtifactError,
    ArtifactView,
    content_key,
    encode_artifact,
)
from repro.server.protocol import encode_message, slice_payload, stats_payload
from repro.slicing.flatslice import flat_slicer
from repro.slicing.tabulation import (
    THIN_SAME_LEVEL,
    TRADITIONAL_SAME_LEVEL,
    TabulationSlicer,
)
from repro.suite.harness import SUITE_PROGRAMS
from repro.suite.loader import load_source

#: Analyses are expensive; every test shares one bundle per program.
_BUNDLES: dict[str, tuple[str, object, bytes, ArtifactView]] = {}


def bundle(name: str):
    if name not in _BUNDLES:
        source = load_source(name)
        analyzed = analyze(source, f"{name}.mj")
        key = content_key(source, AnalyzeOptions())
        payload = encode_artifact(analyzed, key=key)
        _BUNDLES[name] = (source, analyzed, payload, ArtifactView.from_buffer(payload))
    return _BUNDLES[name]


def seeded_lines(view: ArtifactView, count: int = 10) -> list[int]:
    """An even sample of source lines that actually carry seeds."""
    lines = sorted(
        {view.node_line(n) for n in view.graph_nodes() if view.is_statement(n)}
    )
    lines = [line for line in lines if line > 0]
    step = max(1, len(lines) // count)
    return lines[::step][:count]


class TestDifferential:
    """Flat vs rich must be byte-identical on the wire."""

    @pytest.mark.parametrize("name", SUITE_PROGRAMS)
    def test_slice_payloads_identical_flat_vs_rich(self, name):
        source, analyzed, payload, view = bundle(name)
        for flavor in ("thin", "traditional"):
            rich = (
                analyzed.thin_slicer
                if flavor == "thin"
                else analyzed.traditional_slicer
            )
            flat = flat_slicer(view, flavor)
            for line in seeded_lines(view):
                wire_rich = encode_message(
                    slice_payload(
                        rich.slice_from_line(line),
                        program=name,
                        line=line,
                        flavor=flavor,
                        context=2,
                    )
                )
                wire_flat = encode_message(
                    slice_payload(
                        flat.slice_from_line(line),
                        program=name,
                        line=line,
                        flavor=flavor,
                        context=2,
                    )
                )
                assert wire_flat == wire_rich, (name, flavor, line)

    def test_seed_sets_identical(self):
        _, analyzed, _, view = bundle("figure2")
        from repro.sdg.nodes import node_line

        for line in range(1, len(view.source_lines()) + 1):
            flat_seeds = view.seeds_at_line(line)
            rich_seeds = analyzed.thin_slicer.seeds_at_line(line)
            assert len(flat_seeds) == len(rich_seeds), line
            assert sorted(view.node_line(n) for n in flat_seeds) == sorted(
                node_line(n) for n in rich_seeds
            ), line

    def test_stats_counts_identical(self):
        _, analyzed, _, view = bundle("figure2")
        rich = stats_payload(analyzed, "figure2")
        for field, value in view.counts.items():
            if field in rich:
                assert value == rich[field], field


class TestTabulationOverView:
    """The demand-driven slicer runs over either graph representation."""

    @pytest.mark.parametrize(
        "same_level", [THIN_SAME_LEVEL, TRADITIONAL_SAME_LEVEL]
    )
    def test_tabulation_view_matches_sdg(self, same_level):
        source, analyzed, payload, view = bundle("figure2")
        over_sdg = TabulationSlicer(
            analyzed.compiled, analyzed.sdg, same_level=same_level
        )
        over_view = TabulationSlicer(None, view, same_level=same_level)
        for line in seeded_lines(view):
            expected = over_sdg.slice_from_line(line)
            got = over_view.slice_from_line(line)
            assert got.lines == expected.lines, line
            assert got.source_view() == expected.source_view(), line


class TestRoundTrip:
    def test_rich_round_trip(self):
        _, analyzed, _, view = bundle("figure2")
        restored = view.to_analyzed_program()
        assert restored.timings is None
        assert restored.sdg.statement_count() == analyzed.sdg.statement_count()
        assert restored.sdg.edge_count() == analyzed.sdg.edge_count()
        # Memoized: the re-analysis happens once.
        assert view.to_analyzed_program() is restored

    def test_reanalysis_round_trip_without_rich(self):
        """The artifact stores no rich object graph: the view re-derives
        the program from its embedded source + options, and that program
        encodes back to the very same bytes."""
        _, analyzed, payload, _ = bundle("figure2")
        view = ArtifactView.from_buffer(payload)
        restored = view.to_analyzed_program()
        assert restored is not analyzed
        assert restored.sdg.statement_count() == analyzed.sdg.statement_count()
        assert restored.sdg.edge_count() == analyzed.sdg.edge_count()
        assert encode_artifact(restored, key=view.key) == payload

    def test_source_text_round_trips(self):
        source, analyzed, _, view = bundle("figure2")
        assert view.text.startswith(source)
        assert view.source_lines() == analyzed.compiled.source.lines()


class TestRejection:
    """A disk store must be able to refuse stale or torn artifacts."""

    def test_bad_magic_rejected(self):
        with pytest.raises(ArtifactError):
            ArtifactView.from_buffer(b"\x80\x04 this is not an artifact")

    def test_format_mismatch_rejected(self):
        _, _, payload, _ = bundle("figure2")
        patched = bytearray(payload)
        struct.pack_into("<I", patched, len(MAGIC), ARTIFACT_FORMAT + 1)
        with pytest.raises(ArtifactError):
            ArtifactView.from_buffer(bytes(patched))

    @pytest.mark.parametrize("keep", [10, 100, 1000])
    def test_truncation_rejected(self, keep):
        _, _, payload, _ = bundle("figure2")
        with pytest.raises(ArtifactError):
            ArtifactView.from_buffer(payload[:keep])

    def test_version_mismatch_rejected(self, monkeypatch):
        import repro

        _, analyzed, _, _ = bundle("figure2")
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        stale = encode_artifact(analyzed, key="k")
        monkeypatch.undo()
        view = ArtifactView.from_buffer(stale)
        with pytest.raises(ArtifactError):
            view.validate("k")

    def test_key_mismatch_rejected(self):
        _, analyzed, _, _ = bundle("figure2")
        payload = encode_artifact(analyzed, key="expected")
        view = ArtifactView.from_buffer(payload)
        view.validate("expected")
        with pytest.raises(ArtifactError):
            view.validate("other")

    def test_empty_buffer_rejected(self):
        with pytest.raises(ArtifactError):
            ArtifactView.from_buffer(b"")


class TestDeterminism:
    """Artifact bytes are a pure function of (source, options, version).

    History: before this format existed, cross-process artifact
    determinism was faked by substituting a ``_NIL = ()`` sentinel for
    ``None`` contexts in every SDG-layer ``__hash__`` — ``hash(None)``
    is derived from its address on Python < 3.12, so set iteration
    order (and therefore pickled-SDG bytes) varied with ASLR between
    worker processes.  The flat encoder sorts nodes and edges into a
    canonical order instead, which makes the determinism guarantee
    *structural* and let the sentinel hack retire.  The subprocess test
    below is the regression guard: it re-encodes the same program under
    a different ``PYTHONHASHSEED`` in a fresh interpreter (fresh ASLR
    layout) and must produce the identical whole payload.
    """

    def test_two_encodes_agree_in_process(self):
        _, analyzed, payload, view = bundle("figure2")
        again = encode_artifact(analyzed, key=view.key)
        assert hashlib.sha256(again).digest() == hashlib.sha256(payload).digest()

    def test_canonical_bytes_stable_across_hash_seeds(self):
        source, _, payload, view = bundle("figure2")
        expected = hashlib.sha256(payload).hexdigest()
        script = (
            "import hashlib, sys\n"
            "from repro import AnalyzeOptions, analyze\n"
            "from repro.artifact import content_key, encode_artifact\n"
            "from repro.suite.loader import load_source\n"
            "source = load_source('figure2')\n"
            "analyzed = analyze(source, 'figure2.mj')\n"
            "key = content_key(source, AnalyzeOptions())\n"
            "payload = encode_artifact(analyzed, key=key)\n"
            "print(hashlib.sha256(payload).hexdigest())\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "271828"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath("src"), env.get("PYTHONPATH", "")])
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert result.stdout.strip() == expected
