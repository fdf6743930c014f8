"""Dynamic thin slicing tests (the §7 extension).

A traced run must (a) behave exactly like a plain run of the reference
interpreter, and (b) produce dynamic slices with the same producer/
explainer split the static slicers exhibit — but exact, since dynamic
heap dependences need no points-to approximation.
"""

from __future__ import annotations

import pytest

from repro.dynamic import (
    dynamic_thin_slice,
    failure_seeds,
    trace_and_slice,
    trace_program,
)
from repro.frontend import compile_source
from repro.fuzz.grammar import generate_program
from repro.interp.interpreter import run_program
from repro.lang.source import marker_line
from repro.suite.bugs import BUGS
from repro.suite.loader import load_source


def trace(source: str, args=None, stdlib=False):
    compiled = compile_source(source, include_stdlib=stdlib)
    return trace_program(compiled.ast, compiled.table, args)


class TestTracerMatchesInterpreter:
    CASES = [
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

    @pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
    def test_same_output_as_reference_interpreter(self, name, args):
        source = load_source(name)
        compiled = compile_source(source, name, include_stdlib=True)
        reference = run_program(compiled.ast, compiled.table, args)
        traced = trace_program(compiled.ast, compiled.table, args)
        assert traced.output == reference.output
        assert traced.error_class == reference.error_class
        assert traced.error == reference.error
        assert traced.timed_out == reference.timed_out

    @pytest.mark.parametrize("seed", range(40))
    def test_same_behaviour_on_generated_programs(self, seed):
        # Generated programs index out of bounds and recurse without
        # bound; a traced run must report the same exception text.
        compiled = compile_source(generate_program(seed, 1.0), f"gen{seed}.mj")
        reference = run_program(compiled.ast, compiled.table, [], max_steps=200_000)
        traced = trace_program(compiled.ast, compiled.table, [], max_steps=200_000)
        assert traced.output == reference.output
        assert traced.error_class == reference.error_class
        assert traced.error == reference.error
        assert traced.timed_out == reference.timed_out

    def test_exception_behaviour_matches(self):
        source = load_source("figure4")
        compiled = compile_source(source, "figure4", include_stdlib=True)
        reference = run_program(compiled.ast, compiled.table, [])
        traced = trace_program(compiled.ast, compiled.table, [])
        assert traced.error_class == reference.error_class == "ClosedException"

    def test_event_budget(self):
        source = (
            "class Main { static void main(String[] args) {"
            " int s = 0; for (int i = 0; i < 100000; i++) { s += i; }"
            " print(s); } }"
        )
        compiled = compile_source(source)
        traced = trace_program(
            compiled.ast, compiled.table, [], max_events=1000
        )
        assert traced.timed_out


class TestDynamicSlices:
    def test_figure1_dynamic_thin_slice(self):
        source = load_source("figure1")
        run = trace_and_slice(source, ["John Doe"], seed_output_index=0)
        tags = {
            n: marker_line(source, "tag", n)
            for n in ("read", "indexOf", "buggy", "add", "get", "seed",
                      "setNames", "getNames")
        }
        for name in ("read", "indexOf", "buggy", "add", "get", "seed"):
            assert tags[name] in run.thin.lines, name
        # Explainers (pointer plumbing) excluded from the thin slice...
        assert tags["setNames"] not in run.thin.lines
        # ...and the traditional slice is a superset.
        assert run.thin.lines <= run.traditional.lines
        assert len(run.traditional.lines) > len(run.thin.lines)

    def test_dynamic_slice_from_throw_is_small(self):
        # §4.2: "no value flows into the throw statement, [so] a thin
        # slice from the throw statement will not aid debugging" — the
        # dynamic thin slice only chases the exception's payload (the
        # file name), never the close() that caused the state.
        source = load_source("figure4")
        run = trace_and_slice(source, [])
        assert run.trace.error_class == "ClosedException"
        assert len(run.thin.lines) <= 8
        close = marker_line(source, "tag", "close")
        assert close not in run.thin.lines
        assert close in run.traditional.lines

    def test_dynamic_traditional_from_throw_reaches_cause(self):
        source = load_source("figure4")
        run = trace_and_slice(source, [])
        close = marker_line(source, "tag", "close")
        assert close in run.traditional.lines

    def test_dynamic_slice_is_execution_specific(self):
        # A branch not taken leaves no events: the dynamic slice of the
        # printed value ignores the unexecuted assignment.
        source = """
        class Main {
          static void main(String[] args) {
            int x = 1;                          //@tag:one
            if (args.length > 5) { x = 2; }     //@tag:two
            print(x);                           //@tag:out
          }
        }
        """
        run = trace_and_slice(source, [], include_stdlib=False)
        assert marker_line(source, "tag", "one") in run.thin.lines
        assert marker_line(source, "tag", "two") not in run.thin.lines

    def test_dynamic_heap_dependence_is_exact(self):
        # Two boxes, aliased stores would confuse a context-insensitive
        # static slicer without cloning; the trace is exact by nature.
        source = """
        class Box { int v; }
        class Main {
          static void main(String[] args) {
            Box a = new Box();
            Box b = new Box();
            a.v = 10;                           //@tag:storeA
            b.v = 20;                           //@tag:storeB
            print(a.v);                         //@tag:out
          }
        }
        """
        run = trace_and_slice(source, [], include_stdlib=False)
        assert marker_line(source, "tag", "storeA") in run.thin.lines
        assert marker_line(source, "tag", "storeB") not in run.thin.lines

    def test_dynamic_thin_subset_of_traditional_everywhere(self):
        for name, args in (
            ("figure1", ["John Doe"]),
            ("rules", []),
            ("minijavac", ["x = 2 * 3 + 1"]),
        ):
            run = trace_and_slice(load_source(name), args)
            assert run.thin.lines <= run.traditional.lines, name

    def test_catch_links_to_throw(self):
        source = """
        class E { String m; E(String m) { this.m = m; } }
        class Main {
          static void main(String[] args) {
            try {
              throw new E("boom");              //@tag:throw
            } catch (E e) {
              print(e.m);                       //@tag:out
            }
          }
        }
        """
        run = trace_and_slice(source, [], include_stdlib=False,
                              seed_output_index=0)
        assert marker_line(source, "tag", "throw") in run.thin.lines

    def test_failure_seeds_prefers_error(self):
        source = load_source("figure4")
        compiled = compile_source(source, include_stdlib=True)
        traced = trace_program(compiled.ast, compiled.table, [])
        seeds = failure_seeds(traced)
        assert seeds[0] is traced.error_event
        # ...plus the producing events of the values the exception carries.
        assert set(seeds[1:]) == set(traced.error_field_events)

    def test_failure_seeds_falls_back_to_last_output(self):
        traced = trace(
            'class Main { static void main(String[] args) { print("a"); '
            'print("b"); } }'
        )
        seeds = failure_seeds(traced)
        assert seeds == [traced.output_events[-1]]


class TestDynamicVsStatic:
    def test_dynamic_thin_no_larger_than_static_thin(self):
        """On the executed path, dynamic dependences are a subset of the
        static may-dependences, so the dynamic thin slice (lines) is no
        larger than the static thin slice from the same seed line."""
        from repro.analysis.pointsto import solve_points_to
        from repro.sdg.sdg import build_sdg
        from repro.slicing.thin import ThinSlicer

        source = load_source("figure1")
        compiled = compile_source(source, "figure1.mj", include_stdlib=True)
        pts = solve_points_to(compiled.ir)
        sdg = build_sdg(compiled, pts)
        seed = marker_line(source, "tag", "seed")
        static_lines = ThinSlicer(compiled, sdg).slice_from_line(seed).lines

        run = trace_and_slice(source, ["John Doe"], seed_output_index=0)
        assert run.thin.lines <= static_lines | {seed}

    def test_injected_bug_found_dynamically(self):
        """The dynamic thin slice from the wrong output contains the
        injected statement — the Zhang et al. observation the paper
        cites (dynamic data dependences alone often find the bug)."""
        bug = BUGS["minixml-2"]
        buggy = bug.apply()
        compiled = compile_source(buggy, bug.bug_id, include_stdlib=True)
        traced = trace_program(compiled.ast, compiled.table, list(bug.args))
        # Find the wrong "id: 4" output event.
        index = next(
            i for i, line in enumerate(traced.output) if line.startswith("id:")
        )
        slice_ = dynamic_thin_slice([traced.output_events[index]])
        buggy_line = marker_line(compiled.source.text, "tag", bug.marker)
        assert buggy_line in slice_.lines
