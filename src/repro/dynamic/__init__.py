"""Dynamic thin slicing: exact dependences from traced executions (§7).

A traced execution is a run of the reference interpreter
(:mod:`repro.interp`) with a :class:`~repro.dynamic.tracer.TraceSink`
attached.
"""

from repro.dynamic.events import (
    Event,
    EventFactory,
    TraceBudgetExceeded,
    lines_of,
    thin_closure,
    traditional_closure,
)
from repro.dynamic.slicer import (
    DynamicSlice,
    TracedRun,
    dynamic_thin_slice,
    dynamic_traditional_slice,
    failure_seeds,
    trace_and_slice,
)
from repro.dynamic.tracer import DynamicTrace, trace_program

__all__ = [
    "DynamicSlice",
    "DynamicTrace",
    "Event",
    "EventFactory",
    "TraceBudgetExceeded",
    "TracedRun",
    "dynamic_thin_slice",
    "dynamic_traditional_slice",
    "failure_seeds",
    "lines_of",
    "thin_closure",
    "trace_and_slice",
    "trace_program",
    "traditional_closure",
]
