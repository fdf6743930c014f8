"""Source-file abstractions: positions, spans, and marker extraction.

The benchmark suite tags interesting lines with ``//@tag:name`` comments
(seed statements, desired statements, injected-bug sites).  Because bug
injection rewrites lines, tags are resolved against the *final* text of
each program, never hard-coded as line numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(order=True, unsafe_hash=True, slots=True)
class Position:
    """A (line, column) pair within a named source file. 1-based.

    The lexer builds one per token, so it is slotted and not frozen
    (a frozen dataclass costs about three times as much to construct).
    Positions are shared and hashed; never assign to one.
    """

    line: int
    column: int
    filename: str = "<input>"

    def __reduce__(self):
        # Slotted classes pickle under protocols 0 and 1 only with this.
        return (Position, (self.line, self.column, self.filename))

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}:{self.column}"


@dataclass(frozen=True)
class SourceFile:
    """An MJ source file: its name, its text, and line-level helpers."""

    name: str
    text: str

    def lines(self) -> list[str]:
        return self.text.splitlines()

    def line_text(self, line: int) -> str:
        """Return the 1-based line ``line``, or '' when out of range."""
        lines = self.lines()
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""


_MARKER_RE = re.compile(r"//\s*@(?P<kind>[A-Za-z_]+):(?P<name>[A-Za-z0-9_.\-]+)")


def find_markers(text: str) -> dict[str, dict[str, int]]:
    """Extract ``//@kind:name`` markers from ``text``.

    Returns ``{kind: {name: line_number}}`` with 1-based line numbers.
    A marker applies to the line it is written on.  Multiple markers may
    share a line; a repeated (kind, name) pair keeps the first occurrence,
    matching the convention that a tag names a unique statement.
    """
    markers: dict[str, dict[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _MARKER_RE.finditer(line):
            kind = match.group("kind")
            name = match.group("name")
            markers.setdefault(kind, {})
            markers[kind].setdefault(name, lineno)
    return markers


def marker_line(text: str, kind: str, name: str) -> int:
    """Return the line tagged ``//@kind:name`` or raise ``KeyError``."""
    markers = find_markers(text)
    try:
        return markers[kind][name]
    except KeyError:
        raise KeyError(f"no //@{kind}:{name} marker found") from None
