"""Shared slicing machinery: BFS traversal over the SDG and results.

Both the thin and the traditional context-insensitive slicers are plain
backward reachability (§5.2) differing only in which edge kinds they
follow; the BFS order doubles as the simulated user-inspection order of
the evaluation methodology (§6.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.frontend import CompiledProgram
from repro.ir import instructions as ins
from repro.sdg.nodes import EdgeKind, ParamNode, SDGNode, is_statement, node_position
from repro.sdg.sdg import SDG


def counts_as_inspected(node: SDGNode) -> bool:
    """Nodes a user is charged for inspecting: statements plus the
    actual-in/out bindings sitting on call lines."""
    if is_statement(node):
        return True
    return isinstance(node, ParamNode) and node.role in ("actual_in", "actual_out")


_counts_as_inspected = counts_as_inspected  # backwards-compatible alias


@dataclass
class Traversal:
    """A backward BFS over dependence edges, in visit order."""

    order: list[SDGNode] = field(default_factory=list)
    distance: dict[SDGNode, int] = field(default_factory=dict)

    def statements(self) -> list[ins.Instruction]:
        return [n for n in self.order if is_statement(n)]

    def lines(self) -> list[int]:
        """Distinct source lines inspected, in first-seen order.

        Counts instruction nodes plus actual-in/out parameter nodes:
        when a relevant value passes through a call's argument list, the
        call statement itself is part of the slice (the paper's Figure 1
        includes ``names.add(firstName)`` for exactly this reason).
        Formal-in/out nodes are positionless plumbing and are skipped.
        """
        seen: set[int] = set()
        result: list[int] = []
        for node in self.order:
            if not _counts_as_inspected(node):
                continue
            line = node_position(node).line
            if line > 0 and line not in seen:
                seen.add(line)
                result.append(line)
        return result


def backward_bfs(
    sdg: SDG, seeds: list[SDGNode], kinds: frozenset[EdgeKind]
) -> Traversal:
    """Breadth-first backward reachability following only ``kinds``."""
    traversal = Traversal()
    queue: deque[SDGNode] = deque()
    for seed in seeds:
        if seed not in traversal.distance:
            traversal.distance[seed] = 0
            traversal.order.append(seed)
            queue.append(seed)
    while queue:
        node = queue.popleft()
        depth = traversal.distance[node]
        for dep, kind in sdg.dependencies(node):
            if kind not in kinds or dep in traversal.distance:
                continue
            traversal.distance[dep] = depth + 1
            traversal.order.append(dep)
            queue.append(dep)
    return traversal


@dataclass
class SliceResult:
    """A computed slice, with source-level views."""

    seeds: list[SDGNode]
    traversal: Traversal
    compiled: CompiledProgram

    @property
    def nodes(self) -> set[SDGNode]:
        return set(traversal_nodes(self.traversal))

    @property
    def statements(self) -> list[ins.Instruction]:
        return self.traversal.statements()

    @property
    def statement_count(self) -> int:
        return len(self.statements)

    @property
    def lines(self) -> set[int]:
        return set(self.traversal.lines())

    def source_view(self, context: int = 0) -> str:
        """Render the sliced source lines (with optional context lines)."""
        lines = self.compiled.source.lines()
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


def traversal_nodes(traversal: Traversal) -> list[SDGNode]:
    return traversal.order


class Slicer:
    """Base class: a slicer is an SDG plus a set of edge kinds."""

    kinds: frozenset[EdgeKind] = frozenset()

    def __init__(self, compiled: CompiledProgram, sdg: SDG) -> None:
        self.compiled = compiled
        self.sdg = sdg

    def seeds_at_line(self, line: int) -> list[SDGNode]:
        seeds: list[SDGNode] = []
        for instr in self.compiled.instructions_at_line(line):
            seeds.extend(self.sdg.nodes_of_instruction(instr))
        return seeds

    def slice_from_line(self, line: int) -> SliceResult:
        seeds = self.seeds_at_line(line)
        return self.slice_from_nodes(seeds)

    def slice_from_lines(self, lines) -> SliceResult:
        seeds: list[SDGNode] = []
        for line in lines:
            seeds.extend(self.seeds_at_line(line))
        return self.slice_from_nodes(seeds)

    def slice_from_nodes(self, seeds: list[SDGNode]) -> SliceResult:
        traversal = backward_bfs(self.sdg, seeds, self.kinds)
        return SliceResult(seeds, traversal, self.compiled)
