"""Property-based tests of slicing invariants over generated programs.

A hypothesis strategy builds small well-typed MJ programs (integer
locals, a heap Box, bounded loops, branches, prints).  For every
generated program the core invariants of the paper's definitions must
hold:

* the seed belongs to its own slice;
* thin ⊆ traditional (node- and line-wise);
* hierarchical expansion reaches the traditional slice fixpoint;
* the interpreter and the tracing interpreter agree;
* dynamic thin slices stay within the static thin slice, and so
  within the static traditional slice.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.pointsto import solve_points_to
from repro.dynamic import trace_and_slice, trace_program
from repro.frontend import compile_source
from repro.interp.interpreter import run_program
from repro.sdg.sdg import build_sdg
from repro.slicing.expansion import expand_to_fixpoint, traditional_closure
from repro.slicing.thin import ThinSlicer
from repro.slicing.traditional import TraditionalSlicer

_VARS = ["a", "b", "c"]


@st.composite
def int_expr(draw, depth: int = 0) -> str:
    if depth >= 2 or draw(st.booleans()):
        choice = draw(st.integers(0, len(_VARS)))
        if choice == len(_VARS):
            return str(draw(st.integers(0, 9)))
        return _VARS[choice]
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(int_expr(depth + 1))
    right = draw(int_expr(depth + 1))
    return f"({left} {op} {right})"


@st.composite
def bool_expr(draw) -> str:
    op = draw(st.sampled_from(["<", "<=", ">", "==", "!="]))
    left = draw(int_expr(1))
    right = draw(int_expr(1))
    return f"({left} {op} {right})"


@st.composite
def statement(draw, loop_budget: list) -> str:
    kind = draw(st.sampled_from(["assign", "assign", "if", "box", "loop"]))
    target = draw(st.sampled_from(_VARS))
    if kind == "assign":
        return f"{target} = {draw(int_expr())};"
    if kind == "if":
        then_target = draw(st.sampled_from(_VARS))
        return (
            f"if ({draw(bool_expr())}) {{ {then_target} = {draw(int_expr())}; }}"
            f" else {{ {target} = {draw(int_expr())}; }}"
        )
    if kind == "box":
        return f"box.f = {draw(int_expr())}; {target} = box.f;"
    # bounded loop; each program gets at most two to cap runtime
    if loop_budget[0] <= 0:
        return f"{target} = {draw(int_expr())};"
    loop_budget[0] -= 1
    bound = draw(st.integers(1, 4))
    loop_var = f"i{loop_budget[0]}"
    return (
        f"for (int {loop_var} = 0; {loop_var} < {bound}; {loop_var}++) "
        f"{{ {target} = {target} + {draw(int_expr(1))}; }}"
    )


@st.composite
def mj_program(draw) -> str:
    loop_budget = [2]
    body = [
        "int a = 1;",
        "int b = 2;",
        "int c = 3;",
        "Box box = new Box();",
    ]
    for _ in range(draw(st.integers(1, 6))):
        body.append(draw(statement(loop_budget)))
    body.append("print(a);")
    body.append("print(b + c);")
    statements = "\n    ".join(body)
    return (
        "class Box { int f; }\n"
        "class Main {\n"
        "  static void main(String[] args) {\n"
        f"    {statements}\n"
        "  }\n"
        "}\n"
    )


def _analyze(source: str):
    compiled = compile_source(source, "gen.mj")
    pts = solve_points_to(compiled.ir)
    sdg = build_sdg(compiled, pts)
    return compiled, pts, sdg


def _print_lines(source: str) -> list[int]:
    return [
        i
        for i, line in enumerate(source.splitlines(), 1)
        if line.strip().startswith("print(")
    ]


@settings(max_examples=40, deadline=None)
@given(mj_program())
def test_generated_programs_run_cleanly(source):
    compiled = compile_source(source, "gen.mj")
    result = run_program(compiled.ast, compiled.table, [], max_steps=200_000)
    assert not result.failed, result.error
    assert len(result.output) == 2


@settings(max_examples=30, deadline=None)
@given(mj_program())
def test_thin_subset_of_traditional_on_generated(source):
    compiled, pts, sdg = _analyze(source)
    thin = ThinSlicer(compiled, sdg)
    trad = TraditionalSlicer(compiled, sdg)
    for line in _print_lines(source):
        thin_result = thin.slice_from_line(line)
        trad_result = trad.slice_from_line(line)
        assert set(thin_result.traversal.order) <= set(trad_result.traversal.order)
        assert thin_result.lines <= trad_result.lines
        assert line in thin_result.lines  # seed in its own slice


@settings(max_examples=20, deadline=None)
@given(mj_program())
def test_expansion_reaches_traditional_on_generated(source):
    compiled, pts, sdg = _analyze(source)
    slicer = ThinSlicer(compiled, sdg)
    for line in _print_lines(source):
        seeds = slicer.seeds_at_line(line)
        final = expand_to_fixpoint(sdg, seeds)
        assert final.nodes == traditional_closure(sdg, seeds)


@settings(max_examples=25, deadline=None)
@given(mj_program())
def test_tracer_agrees_with_interpreter_on_generated(source):
    compiled = compile_source(source, "gen.mj")
    reference = run_program(compiled.ast, compiled.table, [], max_steps=200_000)
    traced = trace_program(compiled.ast, compiled.table, [], max_steps=200_000)
    assert traced.output == reference.output
    assert traced.error_class == reference.error_class


@settings(max_examples=20, deadline=None)
@given(mj_program())
def test_dynamic_thin_within_static_thin(source):
    compiled, pts, sdg = _analyze(source)
    run = trace_and_slice(source, [], "gen.mj", include_stdlib=False,
                          seed_output_index=0)
    seed_line = _print_lines(source)[0]
    static_thin = ThinSlicer(compiled, sdg).slice_from_line(seed_line)
    assert run.thin.lines <= static_thin.lines | {seed_line}
    assert run.thin.lines <= run.traditional.lines


@settings(max_examples=20, deadline=None)
@given(mj_program())
def test_dynamic_thin_within_static_traditional(source):
    compiled, pts, sdg = _analyze(source)
    run = trace_and_slice(source, [], "gen.mj", include_stdlib=False,
                          seed_output_index=0)
    seed_line = _print_lines(source)[0]
    static_trad = TraditionalSlicer(compiled, sdg).slice_from_line(seed_line)
    assert run.thin.lines <= static_trad.lines | {seed_line}
    assert run.thin.lines <= run.traditional.lines


@settings(max_examples=20, deadline=None)
@given(mj_program())
def test_bfs_order_deterministic(source):
    compiled, pts, sdg = _analyze(source)
    slicer = ThinSlicer(compiled, sdg)
    line = _print_lines(source)[0]
    first = slicer.slice_from_line(line).traversal.lines()
    second = slicer.slice_from_line(line).traversal.lines()
    assert first == second
