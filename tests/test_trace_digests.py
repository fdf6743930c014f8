"""Pinned digests of dynamic traces.

Dynamic thin slices are the ground truth of every soundness test, so a
change to how traces are recorded must not move a single event.  Each
case's digest covers the event graph reachable from every output
event, the uncaught-exception event and its field events (numbered in
discovery order, with each event's line, kind, ordered producer
parents, base parents and control parent), plus ``events_created``,
``output``, ``error_class`` and ``timed_out``.  A hash of the traced
source is pinned alongside, so an edited program fails with a clear
message instead of a digest mismatch.

The exception *text* is deliberately outside the digest: traced runs
report the reference interpreter's message.

Regenerate (only when a program or the event rules change on purpose):

    PYTHONPATH=src python tests/test_trace_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dynamic import trace_program
from repro.frontend import compile_source
from repro.fuzz.grammar import generate_program
from repro.suite.bugs import bugs_for_table2
from repro.suite.loader import load_source

DIGESTS = Path(__file__).resolve().parent / "trace_digests.json"

_SUITE_CASES = [
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
    ("figure4", []),
]
_GENERATED_SEEDS = range(40)


def _cases() -> dict[str, tuple[str, bool, list[str]]]:
    """case id -> (source, include_stdlib, args)."""
    cases = {
        name: (load_source(name), True, args) for name, args in _SUITE_CASES
    }
    for bug in bugs_for_table2():
        cases[f"bug:{bug.bug_id}"] = (bug.apply(), True, list(bug.args))
    for seed in _GENERATED_SEEDS:
        cases[f"gen:{seed}"] = (generate_program(seed, 1.0), False, [])
    return cases


def trace_digest(trace) -> str:
    """SHA-256 over the trace's observable outcome and reachable graph."""
    roots = list(trace.output_events)
    if trace.error_event is not None:
        roots.append(trace.error_event)
    roots.extend(trace.error_field_events)
    number: dict[object, int] = {}
    order = []

    def visit(event) -> int:
        if event not in number:
            number[event] = len(order)
            order.append(event)
        return number[event]

    root_ids = [visit(event) for event in roots]
    rows = []
    cursor = 0
    while cursor < len(order):
        event = order[cursor]
        cursor += 1
        control = event.control_parent
        rows.append(
            [
                event.line,
                event.kind,
                [visit(p) for p in event.parents],
                [visit(b) for b in event.base_parents],
                -1 if control is None else visit(control),
            ]
        )
    record = {
        "roots": root_ids,
        "events": rows,
        "events_created": trace.events_created,
        "output": trace.output,
        "error_class": trace.error_class,
        "timed_out": trace.timed_out,
    }
    blob = json.dumps(record, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _record(source: str, stdlib: bool, args: list[str]) -> dict[str, str]:
    compiled = compile_source(source, include_stdlib=stdlib)
    trace = trace_program(compiled.ast, compiled.table, args)
    return {
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "trace_sha256": trace_digest(trace),
    }


_CASES = _cases()
_PINNED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_every_case_is_pinned():
    assert sorted(_PINNED) == sorted(_CASES)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_trace_matches_pinned_digest(case):
    source, stdlib, args = _CASES[case]
    pinned = _PINNED[case]
    got = _record(source, stdlib, args)
    assert got["source_sha256"] == pinned["source_sha256"], (
        f"{case}: the traced program changed; regenerate the digests"
    )
    assert got["trace_sha256"] == pinned["trace_sha256"], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_trace_digests.py --regenerate")
    pinned = {case: _record(*spec) for case, spec in sorted(_CASES.items())}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {DIGESTS}")
