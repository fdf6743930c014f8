"""Line-level dependence navigation — a CodeSurfer-flavoured API.

The paper's evaluation simulates a user browsing the dependence graph
(§6.1 cites CodeSurfer's dependence navigation).  :class:`Navigator`
packages that workflow at source-line granularity:

* ``producers_of(line)`` — one step of producer flow (what a thin-slice
  user expands next);
* ``explainers_of(line)`` — the base-pointer and control explainers the
  thin view hides (what expansion would reveal);
* ``consumers_of(line)`` — one step forward;
* ``why(source_line, sink_line)`` — a shortest producer-flow path
  explaining how a value travels between two lines, rendered on source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.frontend import CompiledProgram
from repro.sdg.nodes import EdgeKind, SDGNode, THIN_KINDS, node_position
from repro.sdg.sdg import SDG


@dataclass
class LineStep:
    """One navigation hop: a line plus the edge kinds that led to it."""

    line: int
    kinds: set[EdgeKind] = field(default_factory=set)
    text: str = ""


class Navigator:
    """Dependence navigation over one analyzed program."""

    def __init__(self, compiled: CompiledProgram, sdg: SDG) -> None:
        self.compiled = compiled
        self.sdg = sdg
        self._uses: dict[SDGNode, list[tuple[SDGNode, EdgeKind]]] = {}
        for node, deps in sdg.deps.items():
            for dep, kind in deps:
                self._uses.setdefault(dep, []).append((node, kind))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _nodes_at(self, line: int) -> list[SDGNode]:
        nodes: list[SDGNode] = []
        for instr in self.compiled.instructions_at_line(line):
            nodes.extend(self.sdg.nodes_of_instruction(instr))
        return nodes

    def _line_text(self, line: int) -> str:
        return self.compiled.source.line_text(line).strip()

    def _collect(self, pairs) -> list[LineStep]:
        by_line: dict[int, LineStep] = {}
        for node, kind in pairs:
            line = node_position(node).line
            if line <= 0:
                continue
            step = by_line.setdefault(
                line, LineStep(line, set(), self._line_text(line))
            )
            step.kinds.add(kind)
        return [by_line[line] for line in sorted(by_line)]

    # ------------------------------------------------------------------
    # One-step queries
    # ------------------------------------------------------------------

    def producers_of(self, line: int) -> list[LineStep]:
        """Lines one producer-flow hop behind ``line``."""
        pairs = []
        for node in self._nodes_at(line):
            for dep, kind in self.sdg.dependencies(node):
                if kind in THIN_KINDS:
                    pairs.append((dep, kind))
        return self._collect(pairs)

    def explainers_of(self, line: int) -> list[LineStep]:
        """Base-pointer and control explainers of ``line`` (§2)."""
        pairs = []
        for node in self._nodes_at(line):
            for dep, kind in self.sdg.dependencies(node):
                if kind in (EdgeKind.BASE, EdgeKind.CONTROL):
                    pairs.append((dep, kind))
        return self._collect(pairs)

    def consumers_of(self, line: int) -> list[LineStep]:
        """Lines one producer-flow hop ahead of ``line``."""
        pairs = []
        for node in self._nodes_at(line):
            for user, kind in self._uses.get(node, ()):
                if kind in THIN_KINDS:
                    pairs.append((user, kind))
        return self._collect(pairs)

    # ------------------------------------------------------------------
    # Path explanation
    # ------------------------------------------------------------------

    def why(
        self,
        source_line: int,
        sink_line: int,
        kinds: frozenset[EdgeKind] = THIN_KINDS,
    ) -> list[LineStep] | None:
        """A shortest dependence path from sink back to source.

        Returns the hops in execution order (source first), or None when
        the source cannot reach the sink through ``kinds``.
        """
        sources = set(self._nodes_at(source_line))
        if not sources:
            return None
        parents: dict[SDGNode, tuple[SDGNode | None, EdgeKind | None]] = {}
        queue: deque[SDGNode] = deque()
        for seed in self._nodes_at(sink_line):
            parents[seed] = (None, None)
            queue.append(seed)
        hit: SDGNode | None = None
        while queue and hit is None:
            node = queue.popleft()
            if node in sources:
                hit = node
                break
            for dep, kind in self.sdg.dependencies(node):
                if kind in kinds and dep not in parents:
                    parents[dep] = (node, kind)
                    queue.append(dep)
                    if dep in sources:
                        hit = dep
                        queue.clear()
                        break
        if hit is None:
            return None
        steps: list[LineStep] = []
        cursor: SDGNode | None = hit
        incoming: EdgeKind | None = None
        while cursor is not None:
            line = node_position(cursor).line
            if line > 0 and (not steps or steps[-1].line != line):
                steps.append(
                    LineStep(
                        line,
                        {incoming} if incoming else set(),
                        self._line_text(line),
                    )
                )
            cursor, incoming = parents[cursor]
        return steps

    @staticmethod
    def render_path(steps: list[LineStep]) -> str:
        rows = []
        for index, step in enumerate(steps):
            arrow = "    " if index == 0 else " -> "
            kinds = ",".join(sorted(k.value for k in step.kinds)) or "seed"
            rows.append(f"{arrow}{step.line:5d} [{kinds:9s}] {step.text[:60]}")
        return "\n".join(rows)
