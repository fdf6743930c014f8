"""Slicing directly over a flat artifact: no object graph, ever.

:class:`FlatSlicer` runs the same backward reachability as
:class:`~repro.slicing.engine.Slicer` but walks the CSR edge arrays of
an :class:`~repro.artifact.ArtifactView` — node ids are dense ints, the
edge-kind filter is a byte-table lookup, and seeds come from the
artifact's binary-searched line index.  A warm-disk slice therefore
touches only the pages holding the arrays it traverses; no
``AnalyzedProgram`` object graph is rebuilt.

:class:`FlatSliceResult` duck-types :class:`~repro.slicing.engine.
SliceResult` for everything the server payloads consume — ``seeds``,
``lines``, ``statement_count``, ``source_view`` — and is differentially
tested to produce byte-identical ``slice`` payloads against the rich
path on every suite program.

The §4 expansion queries the daemon serves walk the same arrays:
:func:`flat_control_lines` (``explain``), :func:`flat_why` and
:func:`flat_chop`, whose forward half runs over the view's transposed
CSR.  Each is differentially tested against its rich twin
(``tests/test_served_oracle.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from repro.sdg.nodes import EdgeKind, THIN_KINDS, TRADITIONAL_KINDS
from repro.artifact.view import EDGE_KINDS, ArtifactView
from repro.tooling.navigator import LineStep


def _kind_table(kinds: frozenset[EdgeKind]) -> bytes:
    """``EKND`` code -> 1 if the kind is followed (dense byte table)."""
    table = bytearray(len(EdgeKind))
    for kind in kinds:
        table[kind.index] = 1
    return bytes(table)


@dataclass
class FlatTraversal:
    """Backward BFS over artifact node ids, in visit order."""

    order: list[int] = field(default_factory=list)
    distance: dict[int, int] = field(default_factory=dict)


@dataclass
class FlatSliceResult:
    """A slice computed over an :class:`ArtifactView`.

    Mirrors :class:`~repro.slicing.engine.SliceResult`'s consumer-facing
    surface exactly — the server's ``slice_payload`` does not know (or
    care) which one it was handed.
    """

    seeds: list[int]
    traversal: FlatTraversal
    view: ArtifactView

    @property
    def nodes(self) -> set[int]:
        return set(self.traversal.order)

    @property
    def statements(self) -> list[int]:
        view = self.view
        return [n for n in self.traversal.order if view.is_statement(n)]

    @cached_property
    def _summary(self) -> tuple[set[int], int]:
        """One scan of the traversal: the inspected line set (the flat
        twin of :meth:`repro.slicing.engine.Traversal.lines`) and the
        statement count.  Every statement counts as inspected, so the
        statement test only runs on inspected nodes."""
        view = self.view
        lines: set[int] = set()
        statements = 0
        for node in self.traversal.order:
            if not view.counts_as_inspected(node):
                continue
            if view.is_statement(node):
                statements += 1
            line = view.node_line(node)
            if line > 0:
                lines.add(line)
        return lines, statements

    @property
    def lines(self) -> set[int]:
        return self._summary[0]

    @property
    def statement_count(self) -> int:
        return self._summary[1]

    def source_view(self, context: int = 0) -> str:
        lines = self.view.source_lines()
        marked = self.lines
        chosen = set(marked)
        for line in list(chosen):
            for offset in range(1, context + 1):
                chosen.add(line - offset)
                chosen.add(line + offset)
        rows = []
        for lineno in sorted(chosen):
            if 1 <= lineno <= len(lines):
                marker = "*" if lineno in marked else " "
                rows.append(f"{marker}{lineno:5d}  {lines[lineno - 1]}")
        return "\n".join(rows)


class FlatSlicer:
    """Backward reachability over CSR arrays, filtered by edge kind."""

    def __init__(self, view: ArtifactView, kinds: frozenset[EdgeKind]) -> None:
        self.view = view
        self.kinds = kinds
        self._allowed = _kind_table(kinds)

    def seeds_at_line(self, line: int) -> list[int]:
        return self.view.seeds_at_line(line)

    def slice_from_line(self, line: int) -> FlatSliceResult:
        return self.slice_from_nodes(self.seeds_at_line(line))

    def slice_from_lines(self, lines) -> FlatSliceResult:
        seeds: list[int] = []
        for line in lines:
            seeds.extend(self.seeds_at_line(line))
        return self.slice_from_nodes(seeds)

    def slice_from_nodes(self, seeds: list[int]) -> FlatSliceResult:
        view = self.view
        traversal = _reach(seeds, view.eidx, view.etgt, view.eknd, self._allowed)
        return FlatSliceResult(seeds, traversal, view)

    def forward_from_nodes(self, seeds: list[int]) -> FlatTraversal:
        """Forward reachability (the flat twin of
        :class:`~repro.slicing.forward.ForwardSlicer`), over the view's
        memoized transposed CSR."""
        fidx, fsrc, fknd = self.view.forward_edges()
        return _reach(seeds, fidx, fsrc, fknd, self._allowed)


def _reach(seeds, index, targets, kinds, allowed: bytes) -> FlatTraversal:
    """BFS over one CSR direction, following edges whose kind code is
    set in ``allowed``."""
    traversal = FlatTraversal()
    distance = traversal.distance
    order = traversal.order
    queue: deque[int] = deque()
    for seed in seeds:
        if seed not in distance:
            distance[seed] = 0
            order.append(seed)
            queue.append(seed)
    while queue:
        node = queue.popleft()
        depth = distance[node] + 1
        for i in range(index[node], index[node + 1]):
            dep = targets[i]
            if allowed[kinds[i]] and dep not in distance:
                distance[dep] = depth
                order.append(dep)
                queue.append(dep)
    return traversal


def flat_slicer(view: ArtifactView, flavor: str) -> FlatSlicer:
    """The flat twin of ``analyzed.thin_slicer`` / ``.traditional_slicer``."""
    if flavor == "thin":
        return FlatSlicer(view, THIN_KINDS)
    if flavor == "traditional":
        return FlatSlicer(view, TRADITIONAL_KINDS)
    raise ValueError(f"unknown slice flavor: {flavor}")


def flat_chop(view: ArtifactView, source_line: int, sink_line: int, flavor: str) -> set[int]:
    """Nodes on some dependence path from ``source_line`` to
    ``sink_line``: the forward slice of the source intersected with the
    backward slice of the sink (the flat twin of
    :meth:`repro.slicing.chopping.Chopper.chop`)."""
    slicer = flat_slicer(view, flavor)
    forward = slicer.forward_from_nodes(view.seeds_at_line(source_line))
    backward = slicer.slice_from_line(sink_line).traversal
    return set(forward.order) & set(backward.order)


def flat_why(
    view: ArtifactView, source_line: int, sink_line: int
) -> list[LineStep] | None:
    """A shortest producer-flow path from ``source_line`` to
    ``sink_line`` in execution order, or None (the flat twin of
    :meth:`repro.tooling.navigator.Navigator.why`)."""
    sources = set(view.seeds_at_line(source_line))
    if not sources:
        return None
    eidx, etgt, eknd = view.eidx, view.etgt, view.eknd
    allowed = _kind_table(THIN_KINDS)
    parents: dict[int, tuple[int | None, int | None]] = {}
    queue: deque[int] = deque()
    for seed in view.seeds_at_line(sink_line):
        parents[seed] = (None, None)
        queue.append(seed)
    hit: int | None = None
    while queue and hit is None:
        node = queue.popleft()
        if node in sources:
            hit = node
            break
        for i in range(eidx[node], eidx[node + 1]):
            dep = etgt[i]
            if allowed[eknd[i]] and dep not in parents:
                parents[dep] = (node, eknd[i])
                queue.append(dep)
                if dep in sources:
                    hit = dep
                    queue.clear()
                    break
    if hit is None:
        return None
    lines = view.source_lines()
    steps: list[LineStep] = []
    cursor: int | None = hit
    incoming: int | None = None
    while cursor is not None:
        line = view.node_line(cursor)
        if line > 0 and (not steps or steps[-1].line != line):
            text = lines[line - 1].strip() if line <= len(lines) else ""
            kind = set() if incoming is None else {EDGE_KINDS[incoming]}
            steps.append(LineStep(line, kind, text))
        cursor, incoming = parents[cursor]
    return steps


def flat_control_lines(view: ArtifactView, line: int) -> set[int]:
    """Lines of the conditionals directly governing the statements on
    ``line`` (the flat twin of
    :func:`repro.slicing.expansion.control_explainers`)."""
    eidx, etgt, eknd = view.eidx, view.etgt, view.eknd
    control = EdgeKind.CONTROL.index
    found: set[int] = set()
    for node in view.seeds_at_line(line):
        for i in range(eidx[node], eidx[node + 1]):
            if eknd[i] == control and view.is_statement(etgt[i]):
                found.add(view.node_line(etgt[i]))
    return found
