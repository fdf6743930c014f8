"""Dynamic dependence events.

A traced run (see :mod:`repro.dynamic.tracer`) pairs every runtime
value with the :class:`Event` that produced it.  An event
records its *producer* parents (dynamic flow dependences — the dynamic
analog of the paper's producer statements), its *base* parents (the
events that produced dereferenced base pointers / array indices /
dispatch receivers), and its *control* parent (the most recent branch
decision governing it).

A dynamic thin slice is the transitive closure over producer parents; a
dynamic traditional slice additionally follows base and control parents
— mirroring §3's static definitions exactly, but over the execution
instead of the SDG.
"""

from __future__ import annotations

import itertools

from repro.interp.values import FuelExhausted

_event_ids = itertools.count()


class Event:
    """One dynamic occurrence of a value-producing statement.

    Events compare by identity.  A traced run creates one per evaluation
    step, so the class is slotted and builds its ``uid`` inline.
    """

    __slots__ = ("line", "kind", "parents", "base_parents", "control_parent", "uid")

    def __init__(
        self,
        line: int,
        kind: str,  # 'const', 'binop', 'load', 'store', 'call', 'branch', ...
        parents: tuple["Event", ...] = (),
        base_parents: tuple["Event", ...] = (),
        control_parent: "Event | None" = None,
    ) -> None:
        self.line = line
        self.kind = kind
        self.parents = parents
        self.base_parents = base_parents
        self.control_parent = control_parent
        self.uid = next(_event_ids)

    def __repr__(self) -> str:
        return f"<{self.kind}@{self.line}#{self.uid}>"


class TraceBudgetExceeded(FuelExhausted):
    """The execution produced more events than the configured cap; the
    interpreter ends the run as timed out, as when its fuel runs out."""


class EventFactory:
    """Creates events, enforcing a budget and tracking totals."""

    def __init__(self, max_events: int = 2_000_000) -> None:
        self.max_events = max_events
        self.count = 0

    def make(
        self,
        line: int,
        kind: str,
        parents: tuple[Event, ...] = (),
        base_parents: tuple[Event, ...] = (),
        control_parent: Event | None = None,
    ) -> Event:
        self.count += 1
        if self.count > self.max_events:
            raise TraceBudgetExceeded(
                f"dynamic trace exceeded {self.max_events} events"
            )
        return Event(line, kind, parents, base_parents, control_parent)


def thin_closure(roots: list[Event]) -> set[Event]:
    """Dynamic thin slice: producer parents only."""
    seen: set[Event] = set()
    stack = list(roots)
    while stack:
        event = stack.pop()
        if event in seen:
            continue
        seen.add(event)
        stack.extend(event.parents)
    return seen


def traditional_closure(roots: list[Event]) -> set[Event]:
    """Dynamic traditional slice: producers + bases + control."""
    seen: set[Event] = set()
    stack = list(roots)
    while stack:
        event = stack.pop()
        if event in seen:
            continue
        seen.add(event)
        stack.extend(event.parents)
        stack.extend(event.base_parents)
        if event.control_parent is not None:
            stack.append(event.control_parent)
    return seen


def lines_of(events: set[Event]) -> set[int]:
    return {e.line for e in events if e.line > 0}
