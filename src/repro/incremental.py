"""Incremental, edit-aware analysis: function-granular reuse.

The whole-source cache key (:func:`repro.server.cache.cache_key`) makes
warm *hits* nearly free, but any edit — even one line — misses it and
pays a full cold analysis.  This module closes that gap: an
:class:`IncrementalSession` keeps the fully materialized state of one
analyzed program (AST, class table, SSA IR, points-to result, SDG pair
caches) and, given an edited source, re-analyzes **only what the edit
invalidated** while producing artifact bytes that are *byte-identical*
to a cold analysis of the edited source.

How the pieces fit:

* :func:`split_units` lexes the source into per-member textual units
  (class headers, fields, methods) and fingerprints each one
  (token kinds + texts + unit-relative positions, after
  :func:`repro.frontend.normalize_source`).  Units whose fingerprints
  match are *clean*: their IR, SSA form, and points-to constraint
  fragments are reused wholesale.  A *structure* fingerprint over class
  names, supertypes, member order, signatures, and field declarations
  decides whether the reuse is sound at all — signature or field
  changes fall back to cold.

* Clean functions' instructions are reused **in place**: positions are
  relocated through a piecewise line map and uids are renumbered in
  program order, which reproduces exactly the relative uid order (and
  therefore the call-site ranks and within-function node sort) a cold
  compile of the edited source would produce.  Dirty methods are
  re-parsed in a synthetic class wrapper padded to their true line
  offset, re-checked, re-lowered, and SSA-converted individually.

* The dirty functions' *constraint fragments* (an alpha-normalized
  rendering of exactly the constraints
  :meth:`~repro.analysis.pointsto.PointsToAnalysis._gen_constraints`
  generates) are compared old-vs-new.  If every dirty fragment is
  unchanged or grew by appended constraints, the old points-to
  solution is translated into the new uid/label space and seeds the
  solver's points-to sets as a warm start (``warm_pts`` of
  :func:`~repro.analysis.pointsto.solve_points_to`, which queues
  none of them): pre-seeded sets are already the old least fixpoint,
  so old constraints propagate nothing and only the genuinely new
  constraints cascade.  Monotonicity of Andersen's analysis makes this
  exact — the warm solve converges to the same least fixpoint a cold
  solve reaches.  Any other shape of change re-solves from scratch
  (still reusing the relocated frontend).

* The SDG is rebuilt over the new points-to result, but the per-function
  flow/control dependence pair caches survive across edits for clean
  functions (the instruction objects are the same Python objects).

* An edit that only moves lines (comments, whitespace — zero dirty
  units) skips analysis entirely: the previous artifact's ``LINE`` and
  ``LKEY`` sections are rewritten through the line map and ``META`` /
  ``SRC `` are swapped, reusing every node/edge section verbatim.

Fallbacks (``DeclinedError``) are always to the cold path, never to a
wrong answer: structure changes, parse/type errors in a dirty unit
(cold reproduces the exact diagnostics), lexically odd layouts
(members sharing a line), non-``direct`` heap modes.
"""

from __future__ import annotations

import array
import hashlib
import itertools
import json
import pickle
import threading
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from repro.analysis.heapmodel import AbstractObject
from repro.analysis.pointsto import PointsToResult, solve_points_to
from repro.budget import Budget, BudgetExceeded
from repro.frontend import CompiledProgram, normalize_source, stdlib_source
from repro.ir import instructions as ins
from repro.ir.builder import _FunctionBuilder
from repro.ir.ssa import to_ssa
from repro.lang import ast
from repro.lang.errors import MJError
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.source import Position, SourceFile
from repro.lang.tokens import TokenKind
from repro.lang.typechecker import TypeChecker
from repro.profiling import StageProfiler
from repro.sdg.sdg import build_sdg
from repro.artifact.encode import content_key, encode_artifact
from repro.artifact.format import parse_sections


class DeclinedError(Exception):
    """The edit cannot be served incrementally; fall back to cold.

    ``reason`` is a short machine-readable tag surfaced in the server's
    fragment-store counters.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class SessionDeadError(Exception):
    """The session mutated past the point of no return and then failed;
    its state may be inconsistent and it must be discarded."""


# ---------------------------------------------------------------------------
# Source units and fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceUnit:
    """One textual member of the program: a class header, field, or method.

    ``name`` is the qualified IR function name for methods
    (``Cls.method`` / ``Cls.<init>``); header and field units use
    ``Cls#header`` / ``Cls#field:name``.  ``start_line``/``end_line``
    span the member's tokens (inclusive, 1-based).  ``fingerprint``
    covers token kinds, texts, and unit-relative positions, so any
    change *inside* the span — including comment or whitespace shifts
    between its tokens — dirties the unit, while edits elsewhere leave
    it clean under a pure line shift.
    """

    kind: str  # 'header' | 'field' | 'method'
    class_name: str
    name: str
    start_line: int
    end_line: int
    fingerprint: str
    is_constructor: bool = False
    method_name: str = ""


@dataclass
class ProgramShape:
    """The unit decomposition of one normalized source text."""

    units: list[SourceUnit]
    structure_fingerprint: str
    line_count: int

    def methods(self) -> dict[str, SourceUnit]:
        return {u.name: u for u in self.units if u.kind == "method"}


def _unit_fingerprint(tokens, start_line: int) -> str:
    hasher = hashlib.sha256()
    for token in tokens:
        hasher.update(
            f"{token.kind.name}\x00{token.text}\x00"
            f"{token.position.line - start_line}\x00{token.position.column}\x01"
            .encode("utf-8")
        )
    return hasher.hexdigest()


def split_units(text: str) -> ProgramShape:
    """Decompose normalized source into per-member units.

    Raises :class:`DeclinedError` for anything the splitter cannot
    handle conservatively: lex/structure errors (the cold path will
    produce the real diagnostic) or two members sharing a source line
    (the per-line relocation and wrapper re-parse both assume member
    spans are line-disjoint).
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
        header_tokens = tokens[header_start:i]
        units.append(
            SourceUnit(
                "header",
                class_name,
                f"{class_name}#header",
                header_tokens[0].position.line,
                header_tokens[-1].position.line,
                _unit_fingerprint(
                    header_tokens, header_tokens[0].position.line
                ),
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
                member_tokens = tokens[member_start:i]
                method_name = "<init>" if is_ctor else member_name
                signature = "\x00".join(
                    t.text for t in tokens[member_start:sig_end]
                )
                units.append(
                    SourceUnit(
                        "method",
                        class_name,
                        f"{class_name}.{method_name}",
                        member_tokens[0].position.line,
                        member_tokens[-1].position.line,
                        _unit_fingerprint(
                            member_tokens, member_tokens[0].position.line
                        ),
                        is_constructor=is_ctor,
                        method_name=method_name,
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
                        member_tokens[0].position.line,
                        member_tokens[-1].position.line,
                        fp,
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
# Constraint fragments
# ---------------------------------------------------------------------------


@dataclass
class Fragment:
    """Alpha-normalized points-to constraints of one SSA function.

    ``ops`` mirrors exactly what ``PointsToAnalysis._gen_constraints``
    would emit, with SSA variable names replaced by first-occurrence
    symbols and allocation sites by ordinals.  Two functions with equal
    fragments contribute isomorphic constraint systems; if one
    fragment's op list is a prefix of the other's, the shorter system
    is a subsystem of the longer (symbols are assigned left to right,
    so the shared prefix normalizes identically in both).
    """

    params: tuple[str, ...]
    ops: tuple
    var_names: list[str]  # symbol index -> SSA variable name
    alloc_instrs: list  # alloc ordinal -> New/NewArray instruction


def constraint_fragment(function) -> Fragment:
    var_ids: dict[str, int] = {}
    var_names: list[str] = []
    alloc_instrs: list = []
    ops: list = []

    def sym(name: str) -> int:
        i = var_ids.get(name)
        if i is None:
            i = len(var_names)
            var_ids[name] = i
            var_names.append(name)
        return i

    for instr in function.instructions():
        if isinstance(instr, ins.Const):
            if isinstance(instr.value, str):
                ops.append(("conststr", sym(instr.dest)))
        elif isinstance(instr, ins.Move):
            ops.append(("move", sym(instr.src), sym(instr.dest)))
        elif isinstance(instr, ins.Phi):
            operands = tuple(
                sym(op)
                for op in instr.operands.values()
                if not op.endswith(".undef")
            )
            ops.append(("phi", sym(instr.dest), operands))
        elif isinstance(instr, ins.Cast):
            filt = (
                str(instr.target_type)
                if instr.target_type.is_reference()
                else None
            )
            ops.append(("cast", sym(instr.src), sym(instr.dest), filt))
        elif isinstance(instr, ins.BinOp):
            if getattr(instr, "result_is_string", False):
                ops.append(("binstr", sym(instr.dest)))
        elif isinstance(instr, ins.New):
            ordinal = len(alloc_instrs)
            alloc_instrs.append(instr)
            ops.append(("new", ordinal, instr.class_name, sym(instr.dest)))
        elif isinstance(instr, ins.NewArray):
            ordinal = len(alloc_instrs)
            alloc_instrs.append(instr)
            ops.append(("newarray", ordinal, sym(instr.dest)))
        elif isinstance(instr, ins.FieldLoad):
            ops.append(
                ("fload", sym(instr.base), instr.field_name, sym(instr.dest))
            )
        elif isinstance(instr, ins.FieldStore):
            ops.append(
                ("fstore", sym(instr.base), instr.field_name, sym(instr.value))
            )
        elif isinstance(instr, ins.ArrayLoad):
            ops.append(("aload", sym(instr.base), sym(instr.dest)))
        elif isinstance(instr, ins.ArrayStore):
            ops.append(("astore", sym(instr.base), sym(instr.value)))
        elif isinstance(instr, ins.StaticLoad):
            ops.append(
                ("sload", instr.class_name, instr.field_name, sym(instr.dest))
            )
        elif isinstance(instr, ins.StaticStore):
            ops.append(
                ("sstore", instr.class_name, instr.field_name, sym(instr.value))
            )
        elif isinstance(instr, ins.Return):
            if instr.value is not None:
                ops.append(("ret", sym(instr.value)))
        elif isinstance(instr, ins.Call):
            if instr.kind == "builtin":
                continue
            if instr.kind == "native":
                ops.append(
                    (
                        "native",
                        instr.method_name,
                        None if instr.dest is None else sym(instr.dest),
                    )
                )
                continue
            ops.append(
                (
                    "call",
                    instr.kind,
                    instr.owner,
                    instr.method_name,
                    None if instr.receiver is None else sym(instr.receiver),
                    tuple(sym(a) for a in instr.args),
                    None if instr.dest is None else sym(instr.dest),
                )
            )
    for region in function.try_regions:
        for block_id in sorted(region.blocks):
            block = function.blocks.get(block_id)
            if block is None:
                continue
            for instr in block.instructions:
                if isinstance(instr, ins.Throw):
                    ops.append(
                        (
                            "catchflow",
                            sym(instr.value),
                            sym(region.catch_entry.dest),
                        )
                    )
    return Fragment(
        params=tuple(function.params),
        ops=tuple(ops),
        var_names=var_names,
        alloc_instrs=alloc_instrs,
    )


# ---------------------------------------------------------------------------
# Incremental session
# ---------------------------------------------------------------------------


@dataclass
class IncrementalOutcome:
    """One successful incremental re-analysis."""

    payload: bytes
    key: str
    tier: str  # 'relocate' | 'delta' | 'resolve'
    functions_reused: int
    functions_reanalyzed: int
    timings: dict


_counter_lock = threading.Lock()


def _reserve_uids_above(maximum: int) -> None:
    """Ensure the global instruction uid counter is past ``maximum``.

    Sessions adopt unpickled programs whose uids came from another
    process (workers reset the counter); advancing — never rewinding —
    the shared counter keeps every uid this process hands out unique
    relative to adopted ones.
    """
    with _counter_lock:
        probe = next(ins._instruction_ids)
        if probe <= maximum:
            ins._instruction_ids = itertools.count(maximum + 1)


class IncrementalSession:
    """Mutable analysis state for one program lineage.

    Keyed by (structure fingerprint, options token) in the server's
    fragment store; :meth:`apply_edit` advances the session to the
    edited source and returns cold-identical artifact bytes.  Not
    thread-safe — callers serialize edits per session (the fragment
    store holds a per-session lock).
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        pts: PointsToResult,
        options,
        user_source: str,
        shape: ProgramShape,
        payload: bytes | None,
    ) -> None:
        self.compiled = compiled
        self.pts = pts
        self.options = options
        self.user_source = user_source
        self.shape = shape
        self.payload = payload
        self.flow_pairs_cache: dict[str, list] = {}
        self.ctrl_pairs_cache: dict[str, list] = {}
        self.fragment_memo: dict[str, Fragment] = {}
        self.dead = False
        self.edits = 0

    # -- construction ----------------------------------------------------

    @classmethod
    def from_analyzed(
        cls, analyzed, user_source: str, payload: bytes | None = None
    ) -> "IncrementalSession":
        """Seed a session from a cold analysis result.

        The analyzed program is deep-copied via a pickle round trip:
        the session mutates instructions in place (positions, uids),
        which must never leak into a cached entry that shares the
        object graph.  The round trip also forces every pending
        demand-SSA conversion, so the session works over plain dicts.
        """
        if analyzed.options.heap_mode != "direct":
            raise DeclinedError("heap-mode")
        user_source = normalize_source(user_source)
        shape = split_units(user_source)
        own = pickle.loads(
            pickle.dumps(
                replace(analyzed, sdg=None, timings=None),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        max_uid = 0
        for function in own.compiled.ir.functions.values():
            for instr in function.instructions():
                if instr.uid > max_uid:
                    max_uid = instr.uid
        _reserve_uids_above(max_uid)
        return cls(
            compiled=own.compiled,
            pts=own.pts,
            options=own.options,
            user_source=user_source,
            shape=shape,
            payload=payload,
        )

    # -- the edit path ---------------------------------------------------

    def apply_edit(
        self,
        text: str,
        filename: str = "<input>",
        budget: "Budget | None" = None,
    ) -> IncrementalOutcome:
        """Re-analyze the edited ``text`` incrementally.

        Raises :class:`DeclinedError` when the edit is out of scope
        (caller falls back to cold with the session intact) and
        :class:`SessionDeadError` when a failure occurred after session
        state was already mutated (caller must discard the session).
        """
        if self.dead:
            raise DeclinedError("session-dead")
        profiler = StageProfiler()
        text = normalize_source(text)
        with profiler.stage("units"):
            new_shape = split_units(text)
            if (
                new_shape.structure_fingerprint
                != self.shape.structure_fingerprint
            ):
                raise DeclinedError("structure-changed")
            old_units = self.shape.units
            new_units = new_shape.units
            dirty: list[tuple[SourceUnit, SourceUnit]] = []
            for old_unit, new_unit in zip(old_units, new_units):
                if old_unit.fingerprint != new_unit.fingerprint:
                    if old_unit.kind != "method":
                        # header/field changes that survived the
                        # structure check are positional-only for
                        # headers; fields are covered by structure.
                        if old_unit.kind == "field":
                            raise DeclinedError("field-changed")
                        raise DeclinedError("header-changed")
                    dirty.append((old_unit, new_unit))
        line_map = LineMap(self.shape, new_shape)
        if budget is not None:
            budget.check()

        options = self.options
        key = content_key(text, options)
        method_units = sum(1 for u in new_units if u.kind == "method")

        if not dirty:
            payload = self._relocate_artifact(text, filename, key, line_map)
            if payload is not None:
                # The payload is rewritten through the line map, and the
                # in-memory graph must follow: a later delta/resolve-tier
                # edit relocates AST and instruction positions through
                # *its* line map, whose domain is the last committed
                # text.  Skipping this here would leave positions in the
                # text of two edits ago.
                self._relocate_state(line_map, filename)
                self._commit(text, filename, new_shape, payload)
                profiler.add_count("functions_reused", method_units)
                profiler.add_count("functions_reanalyzed", 0)
                return IncrementalOutcome(
                    payload=payload,
                    key=key,
                    tier="relocate",
                    functions_reused=method_units,
                    functions_reanalyzed=0,
                    timings=profiler.as_dict(),
                )

        # Re-compile every dirty method before touching session state:
        # everything up to here is failure-safe (decline -> cold).
        with profiler.stage("frontend"):
            rebuilt = [
                (
                    old_unit,
                    new_unit,
                    self._recompile_method(text, new_unit, filename),
                )
                for old_unit, new_unit in dirty
            ]
            old_fragments = {}
            for old_unit, _new_unit in dirty:
                frag = self.fragment_memo.get(old_unit.fingerprint)
                if frag is None:
                    frag = constraint_fragment(
                        self.compiled.ir.functions[old_unit.name]
                    )
                old_fragments[old_unit.name] = frag
        if budget is not None:
            budget.check()

        # ---- point of no return: session state is mutated below ----
        try:
            outcome = self._apply_and_analyze(
                text,
                filename,
                key,
                new_shape,
                line_map,
                rebuilt,
                old_fragments,
                profiler,
                budget,
                method_units,
            )
        except BudgetExceeded:
            # Preserve the cancellation taxonomy for the server, but
            # the half-mutated session still has to go.
            self.dead = True
            raise
        except Exception as exc:
            self.dead = True
            raise SessionDeadError(str(exc)) from exc
        return outcome

    # -- tier 0: pure line shift ----------------------------------------

    def _relocate_artifact(
        self, text: str, filename: str, key: str, line_map: LineMap
    ) -> bytes | None:
        """Rewrite the previous artifact's position-bearing sections.

        A zero-dirty edit cannot change any node, edge, site rank, or
        function span — only source lines moved.  ``LINE`` entries and
        ``LKEY`` line keys map through the (strictly monotonic on code
        lines) line map, ``SRC `` and ``META`` are replaced.  Returns
        None when no previous payload is held (first edit of a freshly
        seeded session): the caller then runs the full reuse path,
        which produces the identical bytes.
        """
        from repro.artifact.format import pack_sections

        payload = self.payload
        if payload is None:
            return None
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
                return None  # non-monotonic shift; take the slow path
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

    def _relocate_state(self, line_map: LineMap, filename: str) -> None:
        """Shift the in-memory AST and instruction positions in place.

        The zero-dirty tier rewrites the stored payload; this keeps the
        live object graph in the same coordinate system so the next
        non-trivial edit's line map (old committed text -> new text)
        applies to positions that really are in the old committed text.
        Pure mutation of ``position`` fields — no uids, fragments, or
        points-to state change.
        """
        user_classes = {u.class_name for u in self.shape.units}
        for decl in self.compiled.ast.classes:
            if decl.name in user_classes:
                _relocate_decl(decl, line_map, filename)
        for function in self.compiled.ir.functions.values():
            for instr in function.instructions():
                position = instr.position
                new_line = line_map.map(position.line)
                if (
                    new_line != position.line
                    or position.filename != filename
                ):
                    instr.position = Position(
                        new_line, position.column, filename
                    )

    # -- dirty-method recompilation --------------------------------------

    def _recompile_method(self, text: str, unit: SourceUnit, filename: str):
        """Parse + type-check + lower + SSA one edited method.

        The method's lines are re-parsed inside a synthetic class
        wrapper padded with blank lines, so every token carries its
        true position in the edited file.  Any diagnostic here declines
        the edit — the cold path reproduces the exact error text and
        position for the whole program.
        """
        src_lines = text.split("\n")
        start, end = unit.start_line, unit.end_line
        if start < 2 or end > len(src_lines):
            raise DeclinedError("span-bounds")
        wrapper = "\n".join(
            [""] * (start - 2)
            + [f"class {unit.class_name} {{"]
            + src_lines[start - 1 : end]
            + ["}"]
        )
        try:
            parsed = Parser(tokenize(wrapper, filename)).parse_program()
        except MJError:
            raise DeclinedError("frontend-error") from None
        if len(parsed.classes) != 1 or len(parsed.classes[0].methods) != 1:
            raise DeclinedError("wrapper-shape")
        method = parsed.classes[0].methods[0]
        if method.is_constructor != unit.is_constructor or (
            not unit.is_constructor and method.name != unit.method_name
        ):
            raise DeclinedError("wrapper-shape")
        table = self.compiled.table
        decl = table.info(unit.class_name).decl
        checker = TypeChecker(table)
        checker._check_method(decl, method)
        if checker.errors:
            raise DeclinedError("frontend-error")
        # Probe-lower the method on a throwaway builder: some
        # diagnostics (e.g. ``super(...)`` placement) only fire at IR
        # build time, and the real lowering runs after the session has
        # started mutating — it must not be the first to see them.  The
        # probe result is discarded; only burned instruction uids
        # remain, and uids are encoded as ranks, so that is harmless.
        builder = _FunctionBuilder(table, decl, method)
        try:
            if unit.is_constructor:
                to_ssa(builder.build_constructor())
            else:
                to_ssa(builder.build_method())
        except MJError:
            raise DeclinedError("frontend-error") from None
        return method

    # -- the mutating phase ----------------------------------------------

    def _apply_and_analyze(
        self,
        text: str,
        filename: str,
        key: str,
        new_shape: ProgramShape,
        line_map: LineMap,
        rebuilt: list,
        old_fragments: dict[str, Fragment],
        profiler: StageProfiler,
        budget: "Budget | None",
        method_units: int,
    ) -> IncrementalOutcome:
        compiled = self.compiled
        table = compiled.table
        ir = compiled.ir
        dirty_names = {old_unit.name for old_unit, _n, _m in rebuilt}

        with profiler.stage("frontend"):
            # Swap the edited methods into the AST and class table, and
            # relocate the AST positions a later rebuild could consume
            # (class headers and field declarations — their initializer
            # expressions lower into constructors).
            user_classes = {u.class_name for u in new_shape.units}
            for decl in compiled.ast.classes:
                if decl.name in user_classes:
                    _relocate_decl(decl, line_map, filename)
            for old_unit, _new_unit, method in rebuilt:
                info = table.info(old_unit.class_name)
                decl = info.decl
                if old_unit.is_constructor:
                    old_method = info.constructor
                    info.constructor = method
                else:
                    old_method = info.methods[old_unit.method_name]
                    info.methods[old_unit.method_name] = method
                decl.methods[decl.methods.index(old_method)] = method

            # Lower + SSA the dirty methods.
            new_functions: dict[str, object] = {}
            for old_unit, _new_unit, method in rebuilt:
                decl = table.info(old_unit.class_name).decl
                builder = _FunctionBuilder(table, decl, method)
                if old_unit.is_constructor:
                    function = builder.build_constructor()
                else:
                    function = builder.build_method()
                compiled.dominators[function.name] = to_ssa(function)
                new_functions[function.name] = function
            for name, function in new_functions.items():
                ir.functions[name] = function  # same slot: order preserved

            # Relocate surviving instructions and renumber everything in
            # program order — reproducing the uid order (and with it the
            # call-site ranks and node sort) of a cold compile.
            uid_instr: dict[int, ins.Instruction] = {}
            site_owner: dict[int, str] = {}
            fresh = ins._instruction_ids
            for name, function in ir.functions.items():
                relocate = name not in dirty_names
                instrs = sorted(function.instructions(), key=lambda i: i.uid)
                for instr in instrs:
                    old_uid = instr.uid
                    instr.uid = next(fresh)
                    if relocate:
                        uid_instr[old_uid] = instr
                        site_owner[old_uid] = name
                        position = instr.position
                        new_line = line_map.map(position.line)
                        if (
                            new_line != position.line
                            or position.filename != filename
                        ):
                            instr.position = Position(
                                new_line, position.column, filename
                            )
            ir._owner_of = {
                instr.uid: name
                for name, function in ir.functions.items()
                for instr in function.instructions()
            }
            for name in dirty_names:
                self.flow_pairs_cache.pop(name, None)
                self.ctrl_pairs_cache.pop(name, None)

            full_text = text
            if self.options.include_stdlib:
                full_text = text + "\n" + stdlib_source()
            new_compiled = CompiledProgram(
                source=SourceFile(filename, full_text),
                ast=compiled.ast,
                table=table,
                ir=ir,
                dominators=compiled.dominators,
            )
            self.compiled = new_compiled

            # Classify: can the old solution warm-start the solver?
            new_fragments: dict[str, Fragment] = {}
            warm = True
            for old_unit, new_unit, _method in rebuilt:
                name = old_unit.name
                fragment = constraint_fragment(ir.functions[name])
                new_fragments[name] = fragment
                self.fragment_memo[new_unit.fingerprint] = fragment
                old_fragment = old_fragments[name]
                if old_fragment.params != fragment.params or (
                    fragment.ops[: len(old_fragment.ops)] != old_fragment.ops
                ):
                    warm = False
        if budget is not None:
            budget.check()

        with profiler.stage("pointsto"):
            warm_pts = None
            if warm:
                warm_pts = _translate_pts(
                    self.pts,
                    uid_instr,
                    site_owner,
                    ir,
                    {
                        name: (old_fragments[name], new_fragments[name])
                        for name in new_fragments
                    },
                )
            if warm_pts is not None:
                tier = "delta"
            else:
                tier = "resolve"
            pts = solve_points_to(
                ir,
                containers=self.options.containers,
                budget=budget,
                warm_pts=warm_pts,
            )

        with profiler.stage("sdg"):
            sdg = build_sdg(
                new_compiled,
                pts,
                heap_mode=self.options.heap_mode,
                include_control=self.options.include_control,
                budget=budget,
                flow_pairs_cache=self.flow_pairs_cache,
                ctrl_pairs_cache=self.ctrl_pairs_cache,
            )

        with profiler.stage("encode"):
            from repro import AnalyzedProgram

            analyzed = AnalyzedProgram(
                new_compiled, pts, sdg, self.options, None
            )
            payload = encode_artifact(analyzed, key=key)

        self.pts = pts
        self._commit(text, filename, new_shape, payload)
        reused = method_units - len(rebuilt)
        profiler.add_count("functions_reused", reused)
        profiler.add_count("functions_reanalyzed", len(rebuilt))
        return IncrementalOutcome(
            payload=payload,
            key=key,
            tier=tier,
            functions_reused=reused,
            functions_reanalyzed=len(rebuilt),
            timings=profiler.as_dict(),
        )

    def _commit(
        self, text: str, filename: str, shape: ProgramShape, payload: bytes
    ) -> None:
        self.user_source = text
        self.shape = shape
        self.payload = payload
        self.edits += 1
        if len(self.fragment_memo) > 256:
            self.fragment_memo.clear()


# ---------------------------------------------------------------------------
# Translation of the old solution into the new id/label space
# ---------------------------------------------------------------------------


def _translate_pts(
    old: PointsToResult,
    uid_instr: dict[int, ins.Instruction],
    site_owner: dict[int, str],
    ir,
    dirty_fragments: dict[str, tuple[Fragment, Fragment]],
) -> "dict | None":
    """Map every old pointer key / abstract object into the new space.

    Surviving instructions were renumbered in place, so ``uid_instr``
    carries old-uid -> instruction; dirty functions contribute an
    alloc-ordinal and variable-symbol correspondence from their
    fragment pair.  Returns None when any old key cannot be mapped
    (the caller then re-solves cold — never guesses).
    """
    var_maps: dict[str, dict[str, str]] = {}
    for name, (old_frag, new_frag) in dirty_fragments.items():
        var_maps[name] = {
            old_var: new_frag.var_names[i]
            for i, old_var in enumerate(old_frag.var_names)
        }
        for i, instr in enumerate(old_frag.alloc_instrs):
            # Old alloc instruction objects were replaced; route their
            # (stale) uids to the corresponding new instructions.
            uid_instr[instr.uid] = new_frag.alloc_instrs[i]
            site_owner[instr.uid] = name

    obj_memo: dict[AbstractObject, AbstractObject | None] = {}

    def translate_obj(obj: AbstractObject | None):
        if obj is None:
            return None
        cached = obj_memo.get(obj)
        if cached is not None:
            return cached
        if obj.site < 0:
            obj_memo[obj] = obj
            return obj
        instr = uid_instr.get(obj.site)
        if instr is None:
            raise _Unmappable()
        owner = site_owner[obj.site]
        translated = AbstractObject(
            instr.uid,
            obj.class_name,
            obj.kind,
            translate_obj(obj.context),
            f"{owner}:{instr.position.line}",
        )
        obj_memo[obj] = translated
        return translated

    set_memo: dict[int, frozenset] = {}

    def translate_set(objs: frozenset) -> frozenset:
        cached = set_memo.get(id(objs))
        if cached is None:
            cached = frozenset(translate_obj(o) for o in objs)
            set_memo[id(objs)] = cached
        return cached

    from repro.analysis.heapmodel import (
        FieldKey,
        RetKey,
        StaticKey,
        VarKey,
    )

    out: dict = {}
    try:
        for pkey, objs in old.pts.items():
            cls = type(pkey)
            if cls is VarKey:
                var = pkey.var
                mapping = var_maps.get(pkey.function)
                if mapping is not None:
                    var = mapping.get(var)
                    if var is None:
                        raise _Unmappable()
                new_key = VarKey(
                    pkey.function, var, translate_obj(pkey.context)
                )
            elif cls is FieldKey:
                new_key = FieldKey(translate_obj(pkey.obj), pkey.field)
            elif cls is RetKey:
                new_key = RetKey(pkey.function, translate_obj(pkey.context))
            elif cls is StaticKey:
                new_key = pkey
            else:
                raise _Unmappable()
            out[new_key] = translate_set(objs)
    except _Unmappable:
        return None
    return out


class _Unmappable(Exception):
    pass


# ---------------------------------------------------------------------------
# AST relocation (headers and fields only; method bodies are replaced)
# ---------------------------------------------------------------------------


def _relocate_decl(decl: ast.ClassDecl, line_map: LineMap, filename: str) -> None:
    _relocate_node(decl, line_map, filename, set())
    for field_decl in decl.fields:
        _relocate_tree(field_decl, line_map, filename)


def _relocate_tree(node, line_map: LineMap, filename: str) -> None:
    seen: set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        _relocate_node(current, line_map, filename, seen)
        for value in vars(current).values():
            if isinstance(value, ast.Node):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.Node))


def _relocate_node(node, line_map: LineMap, filename: str, _seen) -> None:
    position = getattr(node, "position", None)
    if isinstance(position, Position) and position.line > 0:
        new_line = line_map.map(position.line)
        if new_line != position.line or position.filename != filename:
            moved = Position(new_line, position.column, filename)
            try:
                node.position = moved
            except AttributeError:  # frozen dataclass node
                object.__setattr__(node, "position", moved)


def _section(payload: bytes, sections: dict, tag: bytes):
    offset, length = sections[tag]
    return payload[offset : offset + length]
