"""Incremental, edit-aware serving: relocate the previous artifact.

The whole-source cache key (:func:`repro.server.cache.cache_key`) makes
warm *hits* nearly free, but any edit — even one line — misses it.
This module serves the cheapest edit without any analysis: one that
only moves lines (comments, blank lines, whitespace between members).
An :class:`IncrementalSession` holds three things — the previous
artifact bytes, the :class:`ProgramShape` of their source, and the
analysis options — and rewrites those bytes for the edited text so they
are *byte-identical* to a cold analysis of it.

How the pieces fit:

* :func:`split_units` lexes the source (after
  :func:`repro.frontend.normalize_source`) into per-member textual
  units (class headers, fields, methods) and hashes a *structure*
  fingerprint over class names, supertypes, member order, signatures
  and field declarations.

* A relocation compares the two sources unit by unit: each pair must
  lex to the same token kinds and texts at the same unit-relative
  positions.  Equal unit text at an equal start column settles that
  without a lex, so a line shift lexes only the edited source, once.

* When the structure and every unit match, no node, edge,
  call-site rank or function span can have changed — only source
  lines moved.  A :class:`LineMap` built from the aligned unit spans
  rewrites the artifact's ``LINE`` entries and ``LKEY`` line keys;
  ``SRC `` and ``META`` are replaced, and every other section is
  reused verbatim.

* Any other edit raises :class:`DeclinedError` and is analyzed cold;
  the serving tier then re-points the session at that cold result, so
  it anchors the next line shift.  A decline is always a fall back to
  cold, never a wrong answer.
"""

from __future__ import annotations

import array
import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.artifact.encode import content_key
from repro.artifact.format import pack_sections, parse_sections
from repro.budget import Budget
from repro.frontend import normalize_source, stdlib_source
from repro.lang.errors import MJError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind
from repro.profiling import StageProfiler


class DeclinedError(Exception):
    """The edit cannot be served incrementally; fall back to cold.

    ``reason`` is a short machine-readable tag surfaced in the server's
    fragment-store counters.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class SessionDeadError(Exception):
    """A session whose state can no longer be trusted.

    Kept for callers that guard an edit with it: relocation changes a
    session only after it has succeeded, so no session raises it.
    """


# ---------------------------------------------------------------------------
# Source units
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceUnit:
    """One textual member of the program: a class header, field, or method.

    ``name`` is the qualified IR function name for methods
    (``Cls.method`` / ``Cls.<init>``); header and field units use
    ``Cls#header`` / ``Cls#field:name``.  The unit spans its tokens
    from ``start_line``:``start_column`` through its closing ``{``,
    ``}`` or ``;`` at ``end_line``:``end_column`` (inclusive, 1-based).
    Two units are the same when they lex to the same token kinds,
    texts and unit-relative positions (:func:`_same_tokens`), so any
    change *inside* the span — including comment or whitespace shifts
    between its tokens — dirties the unit, while edits elsewhere leave
    it clean under a pure line shift.
    """

    kind: str  # 'header' | 'field' | 'method'
    class_name: str
    name: str
    start_line: int
    start_column: int
    end_line: int
    end_column: int


@dataclass
class ProgramShape:
    """The unit decomposition of one normalized source text."""

    units: list[SourceUnit]
    structure_fingerprint: str
    line_count: int
    text: str

    def unit_texts(self) -> list[str]:
        """Each unit's source text, in unit order."""
        lines = self.text.split("\n")
        offsets = [0, *accumulate(len(line) + 1 for line in lines)]
        return [
            self.text[
                offsets[unit.start_line - 1] + unit.start_column - 1 :
                offsets[unit.end_line - 1] + unit.end_column
            ]
            for unit in self.units
        ]


def _same_tokens(
    old: SourceUnit, old_text: str, new: SourceUnit, new_text: str
) -> bool:
    """Whether two units lex to the same token kinds and texts at the
    same unit-relative positions (first-line columns are absolute).

    Equal text at an equal start column settles it; a unit whose
    comments changed, or whitespace that moves no token, is lexed on
    its own.
    """
    if old.start_column != new.start_column:
        return False
    if old_text == new_text:
        return True
    return _token_key(old_text) == _token_key(new_text)


def _token_key(text: str) -> list[tuple]:
    return [
        (token.kind, token.text, token.position.line, token.position.column)
        for token in tokenize(text, "<unit>")
    ]


def _unit_fingerprint(tokens, start_line: int) -> str:
    hasher = hashlib.sha256()
    for token in tokens:
        hasher.update(
            f"{token.kind.name}\x00{token.text}\x00"
            f"{token.position.line - start_line}\x00{token.position.column}\x01"
            .encode("utf-8")
        )
    return hasher.hexdigest()


def _span(first, last) -> tuple[int, int, int, int]:
    return (
        first.position.line,
        first.position.column,
        last.position.line,
        last.position.column,
    )


def split_units(text: str) -> ProgramShape:
    """Decompose normalized source into per-member units.

    Raises :class:`DeclinedError` for anything the splitter cannot
    handle conservatively: lex/structure errors (the cold path will
    produce the real diagnostic).
    """
    try:
        tokens = list(tokenize(text, "<units>"))
    except MJError:
        raise DeclinedError("lex-error") from None
    units: list[SourceUnit] = []
    structure = hashlib.sha256()
    i = 0
    n = len(tokens)

    def _kind(j):
        return tokens[j].kind if j < n else TokenKind.EOF

    while _kind(i) is not TokenKind.EOF:
        if _kind(i) is not TokenKind.CLASS:
            raise DeclinedError("structure-parse")
        header_start = i
        i += 1
        if _kind(i) is not TokenKind.IDENT:
            raise DeclinedError("structure-parse")
        class_name = tokens[i].text
        i += 1
        superclass = ""
        if _kind(i) is TokenKind.EXTENDS:
            i += 1
            if _kind(i) is not TokenKind.IDENT:
                raise DeclinedError("structure-parse")
            superclass = tokens[i].text
            i += 1
        if _kind(i) is not TokenKind.LBRACE:
            raise DeclinedError("structure-parse")
        i += 1
        units.append(
            SourceUnit(
                "header",
                class_name,
                f"{class_name}#header",
                *_span(tokens[header_start], tokens[i - 1]),
            )
        )
        structure.update(
            f"class\x00{class_name}\x00{superclass}\x01".encode("utf-8")
        )
        while _kind(i) is not TokenKind.RBRACE:
            if _kind(i) is TokenKind.EOF:
                raise DeclinedError("structure-parse")
            member_start = i
            while _kind(i) in (TokenKind.STATIC, TokenKind.FINAL):
                i += 1
            is_ctor = (
                _kind(i) is TokenKind.IDENT
                and tokens[i].text == class_name
                and _kind(i + 1) is TokenKind.LPAREN
            )
            if not is_ctor:
                # Type: base type token plus [] pairs, then the name.
                if _kind(i) not in (
                    TokenKind.INT,
                    TokenKind.BOOLEAN,
                    TokenKind.VOID,
                    TokenKind.IDENT,
                ):
                    raise DeclinedError("structure-parse")
                i += 1
                while (
                    _kind(i) is TokenKind.LBRACKET
                    and _kind(i + 1) is TokenKind.RBRACKET
                ):
                    i += 2
                if _kind(i) is not TokenKind.IDENT:
                    raise DeclinedError("structure-parse")
            member_name = tokens[i].text
            i += 1
            if _kind(i) is TokenKind.LPAREN:
                # Method or constructor: skip params, then the body.
                while _kind(i) is not TokenKind.RPAREN:
                    if _kind(i) is TokenKind.EOF:
                        raise DeclinedError("structure-parse")
                    i += 1
                i += 1
                sig_end = i  # tokens[member_start:sig_end] = signature
                if _kind(i) is not TokenKind.LBRACE:
                    raise DeclinedError("structure-parse")
                depth = 0
                while True:
                    if _kind(i) is TokenKind.EOF:
                        raise DeclinedError("structure-parse")
                    if _kind(i) is TokenKind.LBRACE:
                        depth += 1
                    elif _kind(i) is TokenKind.RBRACE:
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                i += 1
                method_name = "<init>" if is_ctor else member_name
                signature = "\x00".join(
                    t.text for t in tokens[member_start:sig_end]
                )
                units.append(
                    SourceUnit(
                        "method",
                        class_name,
                        f"{class_name}.{method_name}",
                        *_span(tokens[member_start], tokens[i - 1]),
                    )
                )
                structure.update(
                    f"method\x00{method_name}\x00{signature}\x01"
                    .encode("utf-8")
                )
            else:
                # Field: everything through the terminating semicolon.
                while _kind(i) is not TokenKind.SEMI:
                    if _kind(i) is TokenKind.EOF:
                        raise DeclinedError("structure-parse")
                    i += 1
                i += 1
                member_tokens = tokens[member_start:i]
                fp = _unit_fingerprint(
                    member_tokens, member_tokens[0].position.line
                )
                units.append(
                    SourceUnit(
                        "field",
                        class_name,
                        f"{class_name}#field:{member_name}",
                        *_span(member_tokens[0], member_tokens[-1]),
                    )
                )
                # Field declarations (including initializer expressions,
                # which lower into <init>/<clinit>) are structural: any
                # change to them falls back to cold.
                structure.update(
                    f"field\x00{member_name}\x00{fp}\x01".encode("utf-8")
                )
        i += 1  # closing RBRACE
    return ProgramShape(
        units=units,
        structure_fingerprint=structure.hexdigest(),
        line_count=text.count("\n") + 1,
        text=text,
    )


# ---------------------------------------------------------------------------
# Line maps
# ---------------------------------------------------------------------------


class LineMap:
    """Piecewise-constant old-line -> new-line shift.

    Built from the aligned unit spans of two shapes with identical
    structure; lines between units (comments, blank lines) inherit the
    preceding unit's shift, which is safe because no IR position ever
    lands there.  The stdlib region (lines past the old user text)
    shifts uniformly by the change in user line count.
    """

    def __init__(self, old: ProgramShape, new: ProgramShape) -> None:
        starts: list[int] = []
        deltas: list[int] = []
        last = None
        prev_end = 0
        for old_unit, new_unit in zip(old.units, new.units):
            delta = new_unit.start_line - old_unit.start_line
            if delta != last:
                if old_unit.start_line <= prev_end:
                    # Two units share a source line but want different
                    # shifts (one-line classes pulled apart by an edit);
                    # a per-line map cannot express that.
                    raise DeclinedError("span-shift-conflict")
                starts.append(old_unit.start_line)
                deltas.append(delta)
                last = delta
            prev_end = max(prev_end, old_unit.end_line)
        tail = new.line_count - old.line_count
        if tail != last:
            starts.append(old.line_count + 1)
            deltas.append(tail)
        self._starts = starts
        self._deltas = deltas

    def map(self, line: int) -> int:
        if line <= 0:
            return line
        idx = bisect_right(self._starts, line) - 1
        if idx < 0:
            return line
        return line + self._deltas[idx]


# ---------------------------------------------------------------------------
# Incremental session
# ---------------------------------------------------------------------------


@dataclass
class IncrementalOutcome:
    """One edit served by relocating the previous artifact."""

    payload: bytes
    key: str
    tier: str  # always 'relocate'
    functions_reused: int
    functions_reanalyzed: int
    timings: dict


class IncrementalSession:
    """The relocation anchor of one program lineage.

    Holds the previous artifact bytes, the :class:`ProgramShape` of
    their source and the analysis options; :meth:`apply_edit` advances
    it to a line-shifted edit.  Not thread-safe — the fragment store
    serializes edits per session.
    """

    def __init__(self, payload: bytes, shape: ProgramShape, options) -> None:
        if options.heap_mode != "direct":
            raise DeclinedError("heap-mode")
        self.payload = payload
        self.shape = shape
        self.options = options

    @classmethod
    def from_analyzed(
        cls, analyzed, user_source: str, payload: bytes
    ) -> "IncrementalSession":
        """Anchor a session at a cold result: ``payload`` is the
        artifact encoded from ``analyzed``, a cold analysis of
        ``user_source``."""
        return cls(
            payload, split_units(normalize_source(user_source)), analyzed.options
        )

    def apply_edit(
        self,
        text: str,
        filename: str = "<input>",
        budget: "Budget | None" = None,
    ) -> IncrementalOutcome:
        """Serve the edited ``text`` by relocating the held artifact.

        Raises :class:`DeclinedError` unless the edit only moved lines;
        the session is then unchanged and the caller falls back to cold.
        """
        return self.relocate(
            text, split_units(normalize_source(text)), filename, budget
        )

    def relocate(
        self,
        text: str,
        shape: ProgramShape,
        filename: str = "<input>",
        budget: "Budget | None" = None,
    ) -> IncrementalOutcome:
        """:meth:`apply_edit` for a caller that already split ``text``:
        ``shape`` is ``split_units(normalize_source(text))``."""
        profiler = StageProfiler()
        text = normalize_source(text)
        with profiler.stage("units"):
            if shape.structure_fingerprint != self.shape.structure_fingerprint:
                raise DeclinedError("structure-changed")
            for old, old_text, new, new_text in zip(
                self.shape.units,
                self.shape.unit_texts(),
                shape.units,
                shape.unit_texts(),
            ):
                if not _same_tokens(old, old_text, new, new_text):
                    raise DeclinedError(f"{old.kind}-changed")
            line_map = LineMap(self.shape, shape)
        if budget is not None:
            budget.check()
        key = content_key(text, self.options)
        payload = self._relocate_artifact(text, filename, key, line_map)
        self.payload = payload
        self.shape = shape
        methods = sum(1 for unit in shape.units if unit.kind == "method")
        profiler.add_count("functions_reused", methods)
        profiler.add_count("functions_reanalyzed", 0)
        return IncrementalOutcome(
            payload=payload,
            key=key,
            tier="relocate",
            functions_reused=methods,
            functions_reanalyzed=0,
            timings=profiler.as_dict(),
        )

    def _relocate_artifact(
        self, text: str, filename: str, key: str, line_map: LineMap
    ) -> bytes:
        """Rewrite the held artifact's position-bearing sections.

        ``LINE`` entries and ``LKEY`` line keys map through the line
        map (strictly monotonic on code lines); ``SRC `` and ``META``
        are replaced.
        """
        payload = self.payload
        sections = parse_sections(payload)
        meta = json.loads(bytes(_section(payload, sections, b"META")))
        lines = array.array("i")
        lines.frombytes(_section(payload, sections, b"LINE"))
        for i, line in enumerate(lines):
            if line > 0:
                lines[i] = line_map.map(line)
        lkey = array.array("i")
        lkey.frombytes(_section(payload, sections, b"LKEY"))
        for i, line in enumerate(lkey):
            lkey[i] = line_map.map(line)
        for i in range(1, len(lkey)):
            if lkey[i] <= lkey[i - 1]:
                raise DeclinedError("line-order")
        full_text = text
        if self.options.include_stdlib:
            full_text = text + "\n" + stdlib_source()
        meta["key"] = key
        meta["filename"] = filename
        meta["user_len"] = len(text)
        replaced = {
            b"META": json.dumps(meta, sort_keys=True).encode("utf-8"),
            b"LINE": lines.tobytes(),
            b"LKEY": lkey.tobytes(),
            b"SRC ": full_text.encode("utf-8"),
        }
        for tag in sections:
            if tag not in replaced:
                replaced[tag] = bytes(_section(payload, sections, tag))
        return pack_sections([(tag, replaced[tag]) for tag in sections])


def _section(payload: bytes, sections: dict, tag: bytes):
    offset, length = sections[tag]
    return payload[offset : offset + length]
