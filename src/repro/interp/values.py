"""Runtime values and control-flow signals for the MJ interpreter.

MJ values map onto Python values: ``int``/``bool``/``str`` for primitives
and strings, ``None`` for null, plus :class:`ObjectValue` and
:class:`ArrayValue` for heap data.  Reference equality is Python object
identity, except Strings, which MJ compares by content (documented
deviation from Java — MJ programs still use ``.equals`` idiomatically).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

MJValue = object  # int | bool | str | None | ObjectValue | ArrayValue

_object_ids = itertools.count(1)


class ObjectValue:
    """An MJ heap object: its runtime class and field map.

    ``trace`` stays unset in a plain run.  A trace sink stores the
    object's field events there, so they are freed with the object.
    """

    __slots__ = ("class_name", "fields", "object_id", "trace")

    def __init__(self, class_name: str, fields: dict[str, MJValue]) -> None:
        self.class_name = class_name
        self.fields = fields
        self.object_id = next(_object_ids)

    def __repr__(self) -> str:
        return f"{self.class_name}@{self.object_id}"


class ArrayValue:
    """An MJ array: fixed length, element list.

    ``trace`` stays unset in a plain run; a trace sink stores the
    array's length event and element events there.
    """

    __slots__ = ("elements", "object_id", "trace")

    def __init__(self, elements: list[MJValue]) -> None:
        self.elements = elements
        self.object_id = next(_object_ids)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"array[{len(self.elements)}]@{self.object_id}"


def stringify(value: MJValue) -> str:
    """Convert a value to its printed form (MJ's implicit toString)."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (ObjectValue, ArrayValue)):
        return repr(value)
    return str(value)


def values_equal(a: MJValue, b: MJValue) -> bool:
    """MJ ``==``: primitive/String content equality, reference identity."""
    if isinstance(a, (ObjectValue, ArrayValue)) or isinstance(
        b, (ObjectValue, ArrayValue)
    ):
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        return False  # int vs boolean never compares equal
    return a == b


# ---------------------------------------------------------------------------
# Control-flow signals (Python exceptions used internally)
# ---------------------------------------------------------------------------


class BreakSignal(Exception):
    pass


class ContinueSignal(Exception):
    pass


class ReturnSignal(Exception):
    def __init__(self, value: MJValue) -> None:
        self.value = value
        super().__init__()


class MJThrow(Exception):
    """An in-flight MJ exception (an ObjectValue being thrown)."""

    def __init__(self, value: ObjectValue) -> None:
        self.value = value
        super().__init__(repr(value))


class FuelExhausted(Exception):
    """The step budget ran out (runaway loop in an MJ program)."""


@dataclass
class ExecutionResult:
    """What happened when a program ran."""

    output: list[str]
    error: str | None = None  # rendered uncaught exception, if any
    error_class: str | None = None
    steps: int = 0
    timed_out: bool = False

    @property
    def failed(self) -> bool:
        return self.error is not None or self.timed_out

    def output_text(self) -> str:
        return "\n".join(self.output)


@dataclass
class StaticStore:
    """Static field storage: (class, field) -> value."""

    values: dict[tuple[str, str], MJValue] = field(default_factory=dict)

    def get(self, class_name: str, field_name: str) -> MJValue:
        return self.values.get((class_name, field_name))

    def set(self, class_name: str, field_name: str, value: MJValue) -> None:
        self.values[(class_name, field_name)] = value
