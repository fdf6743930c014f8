"""Differential and pinned-output tests for the analysis pipeline.

The points-to solver's observable facts (non-empty points-to sets,
method instances, call graph) are pinned per program and container
configuration by digests recorded while two independent solvers still
agreed on every one of them, and a cold solve is compared with a
warm-started one on the suite, down to the slices built on top.

Also covers artifact determinism across processes, byte-identity of
one query answered over every executor path, and the demand-driven
tabulation slicer: a single-seed slice must equal the
whole-program-summaries slice while tabulating strictly fewer path
edges.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.heapmodel import AbstractObject
from repro.analysis.modref import compute_modref
from repro.analysis.pointsto import DEFAULT_CONTAINER_CLASSES, solve_points_to
from repro.frontend import compile_source
from repro.sdg.sdg import build_sdg
from repro.slicing.tabulation import TabulationSlicer
from repro.slicing.thin import ThinSlicer
from repro.slicing.traditional import TraditionalSlicer
from repro.suite.harness import SUITE_PROGRAMS
from repro.suite.loader import load_source


def _sample_lines(compiled, count: int = 12) -> list[int]:
    lines = sorted(
        {
            instr.position.line
            for instr in compiled.ir.all_instructions()
            if instr.position.line
        }
    )
    step = max(1, len(lines) // count)
    return lines[::step][:count]


# An adversarial input for a points-to solver: static fields copied
# around a ring inside a recursive method (every rotation is a
# copy-constraint cycle a->b->c->a), plus two Chain objects whose `pass`
# methods recurse through each other — the call graph and the copy
# graph both contain nontrivial strongly connected components.
SCC_HEAVY = """
class Node { Object payload; }

class Ring {
  static Object a;
  static Object b;
  static Object c;

  static void rotate(int n) {
    if (n > 0) {
      Object t = Ring.a;
      Ring.a = Ring.b;
      Ring.b = Ring.c;
      Ring.c = t;
      Ring.rotate(n - 1);
    }
  }
}

class Chain {
  Object slot;
  Chain next;

  Object pass(Object v, int depth) {
    if (depth > 0) {
      this.slot = v;
      return this.next.pass(this.slot, depth - 1);
    }
    return v;
  }
}

class Main {
  static void main(String[] args) {
    Ring.a = new Node();
    Ring.b = new Node();
    Ring.c = new Node();
    Ring.rotate(9);
    Chain first = new Chain();
    Chain second = new Chain();
    first.next = second;
    second.next = first;
    Object out = first.pass(Ring.a, 7);   //@tag:seed
    print(out);
  }
}
"""

_SCALE_DIR = Path(__file__).parent / "scale"
_CONTAINER_CONFIGS = {
    "default": DEFAULT_CONTAINER_CLASSES,
    "none": frozenset(),
}


def _pinned_source(program: str) -> str:
    if program == "scc_heavy":
        return SCC_HEAVY
    if program.startswith("scale_"):
        return (_SCALE_DIR / f"{program}.mj").read_text()
    return load_source(program)


def facts_digest(compiled, result) -> str:
    """Digest of a solve's observable facts: the non-empty points-to
    sets, the method instances, and the call graph's nodes and edges.

    Independent of the hash seed (every fact is rendered and sorted)
    and of the process-global instruction uid counter (uids are
    replaced by their rank within the compiled program)."""
    rank = {
        uid: i
        for i, uid in enumerate(
            sorted(instr.uid for instr in compiled.ir.all_instructions())
        )
    }

    def text(value) -> str:
        if isinstance(value, AbstractObject):
            site = rank[value.site] if value.site >= 0 else value.site
            return (
                f"<{value.class_name} {value.kind} {site} {value.label}"
                f" in {text(value.context)}>"
            )
        if dataclasses.is_dataclass(value):
            inner = ", ".join(
                text(getattr(value, f.name)) for f in dataclasses.fields(value)
            )
            return f"{type(value).__name__}({inner})"
        return repr(value)

    facts = [
        f"pts {text(key)} {sorted(map(text, objs))}"
        for key, objs in result.pts.items()
        if objs
    ]
    facts += [
        f"inst {function} {text(context)}"
        for function, contexts in result.instances.items()
        for context in contexts
    ]
    facts += [f"node {text(node)}" for node in result.call_graph.nodes]
    facts += [
        f"edge {text(caller)} {rank[uid]} {text(callee)}"
        for (caller, uid), callees in result.call_graph.edges.items()
        for callee in callees
    ]
    return hashlib.sha256("\n".join(sorted(facts)).encode()).hexdigest()[:16]


#: Facts digests recorded while the retired cycle-collapsing solver and
#: the plain worklist solver (the one that remains) still ran side by
#: side and agreed on every entry.  They pin the solver's output now
#: that there is no second implementation to compare against.
PINNED_FACTS = {
    "figure1-default": "a5af8c18d92fb5b9",
    "figure1-none": "a86f257b3c9fb079",
    "figure2-default": "34f3b2ad38d7f71f",
    "figure2-none": "34f3b2ad38d7f71f",
    "figure4-default": "42ff8c5f82ce57ee",
    "figure4-none": "2a3503440ae4f705",
    "figure5-default": "bf4865da45f9f16d",
    "figure5-none": "bf4865da45f9f16d",
    "jtopas-default": "64e3966a0f168465",
    "jtopas-none": "1400819622ba9ed9",
    "minibuild-default": "60f47d32e4fb934b",
    "minibuild-none": "aad8bf2d87f36eeb",
    "minijavac-default": "fd2d53a14ddb985f",
    "minijavac-none": "4fc34f6e173ef54f",
    "minixml-default": "27febe449effed9e",
    "minixml-none": "8388da5286fcaf28",
    "parsegen-default": "473c48e54f4d2c34",
    "parsegen-none": "bd3d895d229cee7c",
    "raytrace-default": "18c05806f6646388",
    "raytrace-none": "79543dd7237e5ba8",
    "rules-default": "0a0362211485f837",
    "rules-none": "cd9caf94819a7a98",
    "scale_s101_x6-default": "04e42944f8d2158d",
    "scale_s101_x6-none": "04e42944f8d2158d",
    "scale_s202_x6-default": "31283dcf28666762",
    "scale_s202_x6-none": "31283dcf28666762",
    "scale_s303_x14-default": "b8c3e26edd2f7ae3",
    "scale_s303_x14-none": "b8c3e26edd2f7ae3",
    "scale_s404_x14-default": "98606073da3a5e45",
    "scale_s404_x14-none": "98606073da3a5e45",
    "scc_heavy-default": "28d7c89fd599b24a",
    "scc_heavy-none": "28d7c89fd599b24a",
    "xmlsec-default": "15823dbeb7b75cf8",
    "xmlsec-none": "01ff855e73b56541",
}


@pytest.mark.parametrize("case", sorted(PINNED_FACTS))
def test_solver_facts_match_pinned(case):
    program, config = case.split("-")
    compiled = compile_source(
        _pinned_source(program), f"{program}.mj", include_stdlib=True
    )
    result = solve_points_to(compiled.ir, _CONTAINER_CONFIGS[config])
    assert facts_digest(compiled, result) == PINNED_FACTS[case]


# The remaining solver has two ways in: a cold solve, and the warm
# start the incremental engine uses, which pre-seeds it with part of a
# prior least fixpoint.  Any seed drawn from the least fixpoint must
# lead to exactly the facts the cold solve reaches, so the two starts
# are compared here the way two solvers once were.


def _warm_seeds(cold) -> dict:
    """Every other pointer key of ``cold`` (in a stable order) with its
    full points-to set: a proper, non-empty subset of the fixpoint."""
    keys = sorted(cold.pts, key=repr)[::2]
    return {key: set(cold.pts[key]) for key in keys}


def _cold_and_warm(compiled):
    cold = solve_points_to(compiled.ir)
    seeds = _warm_seeds(cold)
    assert seeds and len(seeds) < len(cold.pts)
    warm = solve_points_to(compiled.ir, warm_pts=seeds)
    return cold, warm


def _assert_results_identical(cold, warm) -> None:
    assert cold.pts, "cold solve produced no points-to facts"
    assert all(cold.pts.values()), "cold solve kept an empty points-to set"
    assert warm.pts == cold.pts, "points-to sets differ"
    assert warm.instances == cold.instances, "method instances differ"
    assert warm.call_graph.nodes == cold.call_graph.nodes
    warm_edges = {k: v for k, v in warm.call_graph.edges.items() if v}
    cold_edges = {k: v for k, v in cold.call_graph.edges.items() if v}
    assert warm_edges == cold_edges, "call graph edges differ"


@pytest.mark.parametrize("name", SUITE_PROGRAMS)
def test_solver_differential_on_suite(name):
    compiled = compile_source(load_source(name), name, include_stdlib=True)
    _assert_results_identical(*_cold_and_warm(compiled))


@pytest.mark.parametrize("name", ["minixml", "jtopas"])
def test_slices_identical_across_solvers(name):
    """Cold and warm-started solves must induce identical thin and
    traditional slices."""
    compiled = compile_source(load_source(name), name, include_stdlib=True)
    cold, warm = _cold_and_warm(compiled)
    sdg_cold = build_sdg(compiled, cold)
    sdg_warm = build_sdg(compiled, warm)
    for line in _sample_lines(compiled):
        for slicer_cls in (ThinSlicer, TraditionalSlicer):
            got = slicer_cls(compiled, sdg_warm).slice_from_line(line)
            want = slicer_cls(compiled, sdg_cold).slice_from_line(line)
            assert got.lines == want.lines, (
                f"{slicer_cls.__name__} slice at {name}:{line} differs"
            )


def test_solver_differential_scc_heavy():
    compiled = compile_source(SCC_HEAVY, "scc.mj", include_stdlib=True)
    cold, warm = _cold_and_warm(compiled)
    _assert_results_identical(cold, warm)
    # The ring rotation must smear all three Node allocations over all
    # three static fields.
    for field in ("a", "b", "c"):
        objs = cold.static_points_to("Ring", field)
        assert len(objs) == 3, f"Ring.{field} -> {objs}"


def test_scc_heavy_slices_identical():
    compiled = compile_source(SCC_HEAVY, "scc.mj", include_stdlib=True)
    cold, warm = _cold_and_warm(compiled)
    sdg_cold = build_sdg(compiled, cold)
    sdg_warm = build_sdg(compiled, warm)
    for line in _sample_lines(compiled):
        got = ThinSlicer(compiled, sdg_warm).slice_from_line(line)
        want = ThinSlicer(compiled, sdg_cold).slice_from_line(line)
        assert got.lines == want.lines


class TestProcessArtifactDeterminism:
    """Artifact bytes must be a pure function of the input.

    The serialize-once path stores a worker's flat artifact bytes
    straight into the content-addressed disk store, so a *warm* pool
    worker must produce exactly the payload a cold, freshly started
    interpreter produces — for every suite program, in one fixed
    worker pair (warm reuse is the adversarial part: a prior task's
    compile history leaking into node numbering or call-site uids is
    precisely the bug class this guards against)."""

    REFERENCE_SCRIPT = textwrap.dedent(
        """
        import hashlib, json, sys
        from repro.parallel import analyze_artifact
        from repro.suite.harness import SUITE_PROGRAMS
        from repro.suite.loader import load_source

        digests = {}
        for name in SUITE_PROGRAMS:
            payload, _ = analyze_artifact(load_source(name), name + ".mj")
            digests[name] = hashlib.sha256(payload).hexdigest()
        print(json.dumps(digests))
        """
    )

    def test_warm_worker_bytes_match_cold_interpreter(self):
        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        reference = subprocess.run(
            [sys.executable, "-c", self.REFERENCE_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert reference.returncode == 0, reference.stderr
        want = json.loads(reference.stdout)

        from repro.parallel import ProcessPool, analyze_artifact

        with ProcessPool(workers=2) as pool:
            got = {}
            for name in SUITE_PROGRAMS:
                payload, _ = pool.run(
                    analyze_artifact, load_source(name), name + ".mj"
                )
                got[name] = hashlib.sha256(payload).hexdigest()
        assert got == want


class TestExecutorPathIdentity:
    """One (program, seed) query answered four ways — local slicer,
    thread-executor daemon, process-executor daemon, and ``slice_batch``
    — must produce byte-identical payloads (``origin`` aside, which
    reports cache provenance, not slice content)."""

    @staticmethod
    def _rpc(server, method, **params):
        line = json.dumps({"id": 1, "method": method, "params": params})
        response = json.loads(server.handle_line(line))
        assert response["ok"], response
        return response["result"]

    @staticmethod
    def _canonical(payload):
        stripped = {k: v for k, v in payload.items() if k != "origin"}
        return json.dumps(stripped, sort_keys=True)

    def test_four_paths_byte_identical(self):
        from repro import AnalyzeOptions, analyze
        from repro.lang.source import marker_line
        from repro.server.cache import AnalysisCache
        from repro.server.daemon import SliceServer
        from repro.server.protocol import slice_payload

        program = "figure2"
        source = load_source(program)
        seed = marker_line(source, "tag", "seed")

        analyzed = analyze(
            source,
            f"{program}.mj",
            options=AnalyzeOptions(include_stdlib=True),
        )
        local = slice_payload(
            analyzed.thin_slicer.slice_from_line(seed),
            program=f"{program}.mj",
            line=seed,
            flavor="thin",
            context=0,
        )

        threaded = SliceServer(AnalysisCache(), executor="thread")
        try:
            via_thread = self._rpc(
                threaded, "slice", program=program, line=seed
            )
            batch = self._rpc(
                threaded, "slice_batch", program=program, lines=[seed, seed]
            )
        finally:
            threaded.close()
        processed = SliceServer(
            AnalysisCache(), workers=2, executor="process"
        )
        try:
            via_process = self._rpc(
                processed, "slice", program=program, line=seed
            )
        finally:
            processed.close()

        assert batch["count"] == 2
        assert batch["distinct_programs"] == 1
        want = self._canonical(local)
        assert self._canonical(via_thread) == want
        assert self._canonical(via_process) == want
        for result in batch["results"]:
            assert self._canonical(result) == want


def test_demand_tabulation_matches_full_with_fewer_path_edges():
    """Demand-driven summaries: same slice, strictly less tabulation."""
    compiled = compile_source(
        load_source("minixml"), "minixml", include_stdlib=True
    )
    pts = solve_points_to(compiled.ir)
    modref = compute_modref(compiled.ir, pts)
    sdg = build_sdg(compiled, pts, heap_mode="params", modref=modref)

    full = TabulationSlicer(compiled, sdg)
    full.compute_summaries()

    # Find a seed line whose slice actually crosses procedure
    # boundaries (a slice that stays intraprocedural needs no summaries
    # and proves nothing about demand-driven tabulation).
    best_line, best_edges = None, 0
    for line in _sample_lines(compiled, count=20):
        probe = TabulationSlicer(compiled, sdg)
        probe.slice_from_line(line)
        if probe.path_edge_count > best_edges:
            best_line, best_edges = line, probe.path_edge_count
    assert best_line is not None, "no sampled slice reached a summary"

    full_result = full.slice_from_line(best_line)
    demand = TabulationSlicer(compiled, sdg)
    demand_result = demand.slice_from_line(best_line)

    assert demand_result.lines == full_result.lines
    assert set(demand_result.statements) == set(full_result.statements)
    assert 0 < demand.path_edge_count < full.path_edge_count, (
        f"demand tabulated {demand.path_edge_count} path edges, "
        f"full tabulated {full.path_edge_count}"
    )
