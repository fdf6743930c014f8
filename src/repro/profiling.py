"""Lightweight pipeline stage profiler.

Every cold analysis walks the same pipeline — parse, typecheck, IR
lowering, SSA, points-to, SDG construction, and (for context-sensitive
slicing) tabulation summaries.  :class:`StageProfiler` records wall time
and a few size counters per stage so that perf work has a measured
baseline instead of folklore: the CLI exposes it as ``--timings``, the
server aggregates it in the ``stats`` RPC, and
``benchmarks/bench_pointsto.py`` persists it per suite program.

The profiler is cheap enough to be always on inside :func:`repro.analyze`
(two ``perf_counter`` calls per stage), so the timings ride along with
cached analysis artifacts too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

#: Canonical stage order for display; unknown stages sort after these.
PIPELINE_STAGES = (
    "parse",
    "typecheck",
    "ir",
    "ssa",
    "pointsto",
    "sdg",
    "summaries",
)


class StageProfiler:
    """Accumulates per-stage wall time (ms) and integer counters."""

    def __init__(self) -> None:
        self.stages_ms: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        # Open-stage child-time accumulators: stages record *exclusive*
        # time, so demand-driven work (e.g. SSA conversion triggered
        # inside the points-to stage) is attributed to its own stage
        # without being double counted in the enclosing one.
        self._open: list[float] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        self._open.append(0.0)
        try:
            yield
        finally:
            elapsed = (time.perf_counter() - start) * 1000
            children = self._open.pop()
            self.stages_ms[name] = self.stages_ms.get(name, 0.0) + (
                elapsed - children
            )
            if self._open:
                self._open[-1] += elapsed

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(value)

    def total_ms(self) -> float:
        return sum(self.stages_ms.values())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable snapshot (the shape stored on analyses)."""
        return {
            "stages_ms": {
                name: round(self.stages_ms[name], 3)
                for name in _ordered_stages(self.stages_ms)
            },
            "counts": dict(sorted(self.counts.items())),
            "total_ms": round(self.total_ms(), 3),
        }


def _ordered_stages(stages: dict[str, float]) -> list[str]:
    known = [s for s in PIPELINE_STAGES if s in stages]
    extra = sorted(s for s in stages if s not in PIPELINE_STAGES)
    return known + extra


def render_timings(timings: dict[str, Any]) -> str:
    """Render an :meth:`StageProfiler.as_dict` snapshot as a table."""
    stages = timings.get("stages_ms", {})
    total = timings.get("total_ms", sum(stages.values()))
    rows = []
    for name in _ordered_stages(stages):
        ms = stages[name]
        share = (100 * ms / total) if total else 0.0
        rows.append(f"  {name:<10} {ms:8.1f} ms  {share:5.1f}%")
    rows.append(f"  {'total':<10} {total:8.1f} ms")
    counts = timings.get("counts", {})
    if counts:
        counters = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        rows.append(f"  [{counters}]")
    return "\n".join(rows)


def merge_timing_dicts(
    aggregate: dict[str, Any], timings: dict[str, Any]
) -> None:
    """Fold one :meth:`StageProfiler.as_dict` snapshot into ``aggregate``.

    ``aggregate`` has the shape ``{"analyses": int, "stages_ms": {...},
    "counts": {...}, "total_ms": float}`` and is what the server's
    ``stats`` RPC reports under ``"pipeline"``.
    """
    aggregate["analyses"] = aggregate.get("analyses", 0) + 1
    stages = aggregate.setdefault("stages_ms", {})
    for name, ms in timings.get("stages_ms", {}).items():
        stages[name] = round(stages.get(name, 0.0) + ms, 3)
    counts = aggregate.setdefault("counts", {})
    for name, value in timings.get("counts", {}).items():
        counts[name] = counts.get(name, 0) + value
    aggregate["total_ms"] = round(
        aggregate.get("total_ms", 0.0) + timings.get("total_ms", 0.0), 3
    )
