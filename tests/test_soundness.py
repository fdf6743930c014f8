"""Soundness sweep: dynamic dependences must be covered statically.

Every dependence the tracing interpreter *observes* corresponds to a
may-dependence the static analysis must predict.  Concretely: the
dynamic thin slice of an output value (a chain of events that actually
happened) must be contained, line-wise, in the static thin slice seeded
at the same print statement — both the rich slicer's and the one an
in-process :class:`~repro.server.daemon.SliceServer` serves from the
flat artifact.  Running this over every suite program and test input is
an end-to-end soundness check of points-to + SDG + slicer (+ artifact
encoding) against the executable semantics.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.pointsto import solve_points_to
from repro.dynamic import dynamic_thin_slice, dynamic_traditional_slice, trace_program
from repro.frontend import compile_source
from repro.sdg.sdg import build_sdg
from repro.server.cache import AnalysisCache
from repro.server.daemon import SliceServer
from repro.slicing.thin import ThinSlicer
from repro.slicing.traditional import TraditionalSlicer
from repro.suite.loader import load_source

CASES = [
    ("figure1", ["John Doe", "Jane Roe"]),
    ("figure5", []),
    ("jtopas", ['foo 12 "x y" + z9']),
    ("minixml", ["<a id='42'><b>hi</b><c x='1'></c></a>"]),
    ("xmlsec", ["Hello XML  Security", "7301"]),
    ("rules", []),
    ("minijavac", ["x = 1 + 2 * 3; y = x - (4 / 2); y * -2"]),
    ("parsegen", ["S -> a B | c ; B -> b | _"]),
    ("raytrace", []),
    ("minibuild", ["prop n world; target a = echo ${n}; target all : a = jar x"]),
]


def _setup(name: str, args: list[str]):
    source = load_source(name)
    compiled = compile_source(source, f"{name}.mj", include_stdlib=True)
    pts = solve_points_to(compiled.ir)
    sdg = build_sdg(compiled, pts)
    trace = trace_program(compiled.ast, compiled.table, args)
    assert not trace.failed, trace.error
    return compiled, sdg, trace


@pytest.fixture(scope="module")
def server():
    instance = SliceServer(AnalysisCache(), executor="thread")
    yield instance
    instance.close()


def _served_lines(server: SliceServer, name: str, line: int) -> set[int]:
    request = {"id": 1, "method": "slice", "params": {"program": name, "line": line}}
    response = json.loads(server.handle_line(json.dumps(request)))
    assert response["ok"], response
    return set(response["result"]["lines"])


@pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
def test_dynamic_thin_contained_in_static_thin(name, args, server):
    compiled, sdg, trace = _setup(name, args)
    static = ThinSlicer(compiled, sdg)
    static_cache: dict[int, dict[str, set[int]]] = {}
    # Check a sample of output events spread over the run.
    sample = trace.output_events[:: max(1, len(trace.output_events) // 5)]
    for event in sample:
        seed_line = event.line
        if seed_line not in static_cache:
            static_cache[seed_line] = {
                "rich": static.slice_from_line(seed_line).lines,
                "served": _served_lines(server, name, seed_line),
            }
        dynamic = dynamic_thin_slice([event])
        for path, lines in static_cache[seed_line].items():
            missing = dynamic.lines - lines - {seed_line, 0}
            assert not missing, (
                f"{name}: dynamic producer lines {sorted(missing)} missing "
                f"from the {path} static thin slice of line {seed_line}"
            )


@pytest.mark.parametrize("name,args", CASES[:4], ids=[c[0] for c in CASES[:4]])
def test_dynamic_traditional_contained_in_static_traditional(name, args):
    compiled, sdg, trace = _setup(name, args)
    static = TraditionalSlicer(compiled, sdg)
    event = trace.output_events[-1]
    static_lines = static.slice_from_line(event.line).lines
    dynamic = dynamic_traditional_slice([event])
    # Implicit default initialization ('default' events on declaration
    # lines) has no statement counterpart in the static SDG — a known
    # modeling difference, not an unsoundness (the value is a constant).
    observed = {
        e.line for e in dynamic.events if e.line > 0 and e.kind != "default"
    }
    missing = observed - static_lines - {event.line}
    assert not missing, sorted(missing)
