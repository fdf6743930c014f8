"""Served ``explain``/``why``/``chop`` against the rich oracle.

The daemon answers every query method from the flat artifact view.
The rich library API — :func:`~repro.slicing.expansion.
control_explainers`, :class:`~repro.tooling.navigator.Navigator` and
:func:`~repro.slicing.chopping.thin_chop` /
:func:`~repro.slicing.chopping.traditional_chop` over a freshly analyzed
:class:`~repro.AnalyzedProgram` — is the reference: with ``origin``
removed, each served payload must be byte-identical to the one the
oracle builds below, on every suite program, the checked-in scale
programs and generated programs at two scales.

A structural test then proves the serving tier never materializes the
rich object graph: with ``ArtifactView.to_analyzed_program`` patched
to raise, every query method still answers — cold, memory-warm and
disk-warm, with and without a disk tier.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import analyze
from repro.artifact import ArtifactView
from repro.fuzz.grammar import generate_program
from repro.server.cache import AnalysisCache
from repro.server.daemon import SliceServer
from repro.server.store import DiskStore
from repro.slicing.chopping import thin_chop, traditional_chop
from repro.slicing.expansion import control_explainers
from repro.suite.loader import load_source, program_names
from repro.tooling.navigator import Navigator

_SCALE_DIR = Path(__file__).parent / "scale"
_SCALE = sorted(path.stem for path in _SCALE_DIR.glob("*.mj"))
_GENERATED = {"gen_s7_x1": (7, 1.0), "gen_s29_x4": (29, 4.0)}
PROGRAMS = program_names() + _SCALE + sorted(_GENERATED)

#: Sink lines sampled per program; each sink is paired with sources
#: drawn from its own thin slice (so most paths exist and most chops
#: are non-empty) plus one arbitrary line.
SINKS = 10


def _source(program: str) -> str:
    if program in _GENERATED:
        return generate_program(*_GENERATED[program])
    if program.startswith("scale_"):
        return (_SCALE_DIR / f"{program}.mj").read_text()
    return load_source(program)


# ----------------------------------------------------------------------
# The rich oracle: payloads built from the object graph
# ----------------------------------------------------------------------


def oracle_explain(analyzed, *, program: str, line: int) -> dict:
    lines = analyzed.compiled.source.lines()
    conditionals: list[dict] = []
    seen: set[int] = set()
    seed_count = 0
    for instr in analyzed.compiled.instructions_at_line(line):
        nodes = analyzed.sdg.nodes_of_instruction(instr)
        seed_count += len(nodes)
        if not nodes:
            continue
        for conditional in control_explainers(analyzed.sdg, instr).conditionals:
            cond_line = conditional.position.line
            if cond_line in seen or not 1 <= cond_line <= len(lines):
                continue
            seen.add(cond_line)
            conditionals.append(
                {"line": cond_line, "text": lines[cond_line - 1].strip()}
            )
    conditionals.sort(key=lambda entry: entry["line"])
    return {
        "program": program,
        "line": line,
        "seed_count": seed_count,
        "conditionals": conditionals,
    }


def oracle_why(navigator, *, program: str, source_line: int, sink_line: int) -> dict:
    path = navigator.why(source_line, sink_line)
    payload = {
        "program": program,
        "source_line": source_line,
        "sink_line": sink_line,
        "found": path is not None,
        "path": [],
        "rendered": "",
    }
    if path is not None:
        payload["path"] = [
            {
                "line": step.line,
                "kinds": sorted(kind.value for kind in step.kinds),
                "text": step.text,
            }
            for step in path
        ]
        payload["rendered"] = navigator.render_path(path)
    return payload


def oracle_chop(
    analyzed, *, program: str, source_line: int, sink_line: int, flavor: str
) -> dict:
    chopper = traditional_chop if flavor == "traditional" else thin_chop
    result = chopper(analyzed.compiled, analyzed.sdg, source_line, sink_line)
    lines = analyzed.compiled.source.lines()
    rows = [
        {"line": line, "text": lines[line - 1].strip()}
        for line in sorted(result.lines)
        if 1 <= line <= len(lines)
    ]
    return {
        "program": program,
        "flavor": flavor,
        "source_line": source_line,
        "sink_line": sink_line,
        "empty": result.empty,
        "lines": rows,
        "line_count": len(rows),
    }


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def rpc(server: SliceServer, method: str, **params) -> dict:
    line = json.dumps({"id": 1, "method": method, "params": params})
    response = json.loads(server.handle_line(line))
    assert response["ok"], response
    return response["result"]


def canonical(payload: dict) -> str:
    return json.dumps(
        {k: v for k, v in payload.items() if k != "origin"}, sort_keys=True
    )


def sample_queries(analyzed, program: str) -> tuple[list[int], list[tuple[int, int]]]:
    """``(explain lines, (source, sink) pairs)`` for one program."""
    rng = random.Random(program)
    lines = sorted(
        {
            instr.position.line
            for instr in analyzed.compiled.ir.all_instructions()
            if instr.position.line
        }
    )
    sinks = lines[:: max(1, len(lines) // SINKS)][:SINKS]
    pairs: list[tuple[int, int]] = []
    for sink in sinks:
        upstream = sorted(analyzed.thin_slicer.slice_from_line(sink).lines)
        for source in rng.sample(upstream, min(2, len(upstream))):
            pairs.append((source, sink))
        pairs.append((rng.choice(lines), sink))
    # Line 0 has no statements: the empty-seed answers must agree too.
    return sinks + [0], pairs + [(0, sinks[0]), (sinks[0], 0)]


@pytest.fixture(scope="module")
def server():
    instance = SliceServer(AnalysisCache(capacity=64), executor="thread")
    yield instance
    instance.close()


@pytest.mark.parametrize("program", PROGRAMS)
def test_served_payloads_match_rich_oracle(server, program):
    source = _source(program)
    name = f"{program}.mj"
    analyzed = analyze(source, name)
    navigator = Navigator(analyzed.compiled, analyzed.sdg)
    explain_lines, pairs = sample_queries(analyzed, program)
    found = nonempty = 0

    for line in explain_lines:
        served = rpc(server, "explain", source=source, filename=name, line=line)
        want = oracle_explain(analyzed, program=name, line=line)
        assert canonical(served) == canonical(want), (program, "explain", line)

    for source_line, sink_line in pairs:
        lines = dict(source_line=source_line, sink_line=sink_line)
        served = rpc(server, "why", source=source, filename=name, **lines)
        want = oracle_why(navigator, program=name, **lines)
        assert canonical(served) == canonical(want), (program, "why", lines)
        found += want["found"]
        for flavor in ("thin", "traditional"):
            served = rpc(
                server, "chop", source=source, filename=name, flavor=flavor,
                **lines,
            )
            want = oracle_chop(analyzed, program=name, flavor=flavor, **lines)
            assert canonical(served) == canonical(want), (
                program, "chop", flavor, lines,
            )
            nonempty += not want["empty"]
    # The sample exercises real paths and corridors, not just misses.
    assert found and nonempty


class TestNeverMaterializes:
    """Every query method answers with the rich escape hatch disabled."""

    QUERIES = [
        ("slice", {"line": 0}),
        ("slice", {"line": 0, "flavor": "traditional"}),
        ("slice_batch", {"lines": [0, 0]}),
        ("stats", {}),
        ("explain", {"line": 0}),
        ("why", {"source_line": 0, "sink_line": 0}),
        ("chop", {"source_line": 0, "sink_line": 0}),
        ("chop", {"source_line": 0, "sink_line": 0, "flavor": "traditional"}),
    ]

    @staticmethod
    def _params(params: dict, seed: int) -> dict:
        """Fill the placeholder ``0`` lines with the program's seed."""
        filled = {}
        for key, value in params.items():
            if isinstance(value, list):
                value = [seed] * len(value)
            elif value == 0:
                value = seed
            filled[key] = value
        return filled

    def _serve_all(self, server, origin: str) -> None:
        from repro.lang.source import marker_line

        seed = marker_line(load_source("figure2"), "tag", "seed")
        for index, (method, params) in enumerate(self.QUERIES):
            result = rpc(
                server, method, program="figure2", **self._params(params, seed)
            )
            results = result["results"] if method == "slice_batch" else [result]
            # The first query of a pass is the one that hits the tier
            # under test; later ones are memory hits on the same entry.
            want = origin if index == 0 else "memory"
            assert all(item["origin"] == want for item in results), (
                method, results,
            )

    @pytest.mark.parametrize("disk", [False, True], ids=["memory-only", "disk"])
    def test_no_method_materializes(self, tmp_path, monkeypatch, disk):
        def refuse(view):
            raise AssertionError("serving tier materialized an AnalyzedProgram")

        monkeypatch.setattr(ArtifactView, "to_analyzed_program", refuse)

        def make(store):
            return SliceServer(AnalysisCache(store=store), executor="thread")

        first = make(DiskStore(tmp_path) if disk else None)
        try:
            self._serve_all(first, "analyzed")
            self._serve_all(first, "memory")
        finally:
            first.close()
        if disk:
            restarted = make(DiskStore(tmp_path))
            try:
                self._serve_all(restarted, "disk")
            finally:
                restarted.close()

    def test_edit_lineage_never_materializes(self, monkeypatch):
        """Serving an edit lineage builds no rich program: a body edit
        is analyzed cold and anchors the next line shift, which is
        relocated from its bytes."""
        from repro import AnalyzeOptions
        from repro.artifact import content_key, encode_artifact
        from repro.incremental import split_units

        calls = []

        def refuse(view):
            calls.append(view)
            raise AssertionError("serving tier materialized an AnalyzedProgram")

        monkeypatch.setattr(ArtifactView, "to_analyzed_program", refuse)
        source = load_source("figure2")
        unit = next(
            u
            for u in split_units(source).units
            if u.kind == "method" and u.end_line > u.start_line
        )
        lines = source.split("\n")
        lines.insert(unit.end_line - 1, '        String __e = "edit";')
        inserted = "\n".join(lines)
        lineage = [source, inserted, "// shifted\n" + inserted]
        options = AnalyzeOptions()
        server = SliceServer(AnalysisCache(), executor="thread")
        try:
            origins = []
            for text in lineage:
                origins.append(
                    rpc(server, "stats", source=text, filename="f2.mj")["origin"]
                )
                entry, _ = server.cache.get_entry(text, "f2.mj", options)
                cold = encode_artifact(
                    analyze(text, "f2.mj", options=options),
                    key=content_key(text, options),
                )
                assert bytes(entry.view._buffer) == cold
        finally:
            server.close()
        assert not calls
        assert origins == ["analyzed", "analyzed", "incremental"]
