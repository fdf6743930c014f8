"""One-call pipeline from MJ source text to analyzed IR.

:func:`compile_source` is the entry point used by the slicers, the
benchmark suite, and the examples.  It optionally prepends the MJ
standard library (containers and exception classes), so programs can use
``Vector``/``HashMap`` the way the paper's Java benchmarks use
``java.util``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.budget import Budget
from repro.lang import ast
from repro.lang.errors import MJError
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser, parse_program
from repro.lang.source import Position, SourceFile
from repro.lang.symbols import ClassTable
from repro.lang.typechecker import check_program
from repro.ir.builder import build_program
from repro.ir.cfg import IRProgram
from repro.ir.dominance import DominatorInfo
from repro.ir.ssa import to_ssa
from repro.profiling import StageProfiler


class _DemandSSAFunctions(dict):
    """``IRProgram.functions`` view that SSA-converts on first access.

    Reads that need a body (``[...]``, ``.get``, ``.items``,
    ``.values``) run the pending conversion hook for that function;
    key-only operations (``in``, ``len``, iteration, ``sorted``) do
    not.  Pickling forces every pending conversion first, so persisted
    programs are always fully SSA-converted plain dicts.
    """

    pending: dict

    def __getitem__(self, name):
        function = dict.__getitem__(self, name)
        convert = self.pending.pop(name, None)
        if convert is not None:
            convert(function)
        return function

    def get(self, name, default=None):
        if dict.__contains__(self, name):
            return self[name]
        return default

    def values(self):
        return [self[name] for name in dict.keys(self)]

    def items(self):
        return [(name, self[name]) for name in dict.keys(self)]

    def __reduce__(self):
        for name in list(self.pending):
            _ = self[name]
        return (dict, (dict(self),))


@dataclass
class CompiledProgram:
    """Everything the analyses need about one program."""

    source: SourceFile
    ast: ast.Program
    table: ClassTable
    ir: IRProgram
    dominators: dict[str, DominatorInfo]

    def instructions_at_line(self, line: int):
        return self.ir.instructions_at_line(self.source.name, line)


def stdlib_source() -> str:
    """The MJ standard library source (containers, exceptions)."""
    from repro.suite.loader import load_stdlib

    return load_stdlib()


#: The stdlib's class declarations, parsed once per process with
#: stdlib-local positions (line 1 is the stdlib's first line) and never
#: handed out: :func:`_stdlib_classes` gives each compile its own copy.
_stdlib_template: list[ast.ClassDecl] | None = None


def _stdlib_classes(filename: str, offset: int) -> list[ast.ClassDecl]:
    """The stdlib's classes as if parsed at line ``offset + 1`` of
    ``filename``: a copy of the one per-process parse, every position
    shifted by ``offset`` lines and stamped with ``filename``.

    Each compile gets fresh nodes, because the type checker decorates
    them in place; the copy shares only immutable leaves (names,
    types, literal values).  Copying is about a third of the cost of
    re-parsing the stdlib's tokens.
    """
    global _stdlib_template
    if _stdlib_template is None:
        _stdlib_template = Parser(
            tokenize(stdlib_source(), "<stdlib>")
        ).parse_program().classes
    node_class = ast.Node
    shifted: dict[int, Position] = {}

    def copy(node):
        fields = node.__dict__.copy()
        for name, value in fields.items():
            if isinstance(value, node_class):
                fields[name] = copy(value)
            elif value.__class__ is list:
                fields[name] = [copy(item) for item in value]
        position = node.position
        moved = shifted.get(id(position))
        if moved is None:
            moved = shifted[id(position)] = Position(
                position.line + offset, position.column, filename
            )
        fields["position"] = moved
        clone = object.__new__(node.__class__)
        clone.__dict__ = fields
        return clone

    return [copy(cls) for cls in _stdlib_template]


def _parse_with_stdlib(text: str, full_text: str, filename: str) -> ast.Program:
    """Parse ``text`` + stdlib, reusing the cached stdlib parse.

    Parsing the user program alone and appending the stdlib's class
    declarations yields exactly what parsing the concatenated text
    would: the grammar is a flat sequence of classes, so a clean user
    parse cannot be influenced by what follows.  Inputs where that does
    not hold — a lex or parse error in the user text, whose diagnostic
    can depend on the appended stdlib — fall back to the concatenated
    scan so errors are bit-identical to the reference path.
    """
    try:
        program = Parser(tokenize(text, filename)).parse_program()
    except MJError:
        return parse_program(full_text, filename)
    program.classes.extend(
        _stdlib_classes(filename, text.count("\n") + 1)
    )
    return program


def normalize_source(text: str) -> str:
    """Canonicalize line endings and trailing whitespace.

    The one normalization shared by every content-addressing layer:
    :func:`source_fingerprint` (the whole-source cache key), the
    per-unit comparison of :mod:`repro.incremental`, and
    :func:`compile_source` itself — which consumes the normalized text,
    so the bytes an artifact embeds in ``SRC`` are exactly the bytes the
    keys were derived from.  If only the fingerprints normalized, two
    sources differing in ``\\r\\n`` vs ``\\n`` would collide on one key
    while producing different artifact bytes.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if " \n" in text or "\t\n" in text or text.endswith((" ", "\t")):
        text = "\n".join(line.rstrip(" \t") for line in text.split("\n"))
    return text


def source_fingerprint(text: str, include_stdlib: bool = False) -> str:
    """SHA-256 over exactly the text :func:`compile_source` would consume.

    The text is passed through :func:`normalize_source` first — the same
    helper the compiler and the per-function fingerprints use, so the
    two key levels can never disagree about the same source.  With
    ``include_stdlib=True`` the stdlib source participates in the
    digest, so a stdlib change invalidates cached analyses even though
    the user-visible source text is unchanged.
    """
    hasher = hashlib.sha256()
    hasher.update(normalize_source(text).encode("utf-8"))
    if include_stdlib:
        hasher.update(b"\x00stdlib\x00")
        hasher.update(stdlib_source().encode("utf-8"))
    return hasher.hexdigest()


def compile_source(
    text: str,
    filename: str = "<input>",
    include_stdlib: bool = False,
    profiler: StageProfiler | None = None,
    budget: "Budget | None" = None,
) -> CompiledProgram:
    """Parse, type-check, lower to IR, and convert to SSA.

    With ``include_stdlib=True`` the MJ standard library is appended to
    the program text (as later classes, so user line numbers are stable).
    A :class:`~repro.profiling.StageProfiler` records per-stage wall
    time (``parse``/``typecheck``/``ir``/``ssa``) when provided.

    ``budget`` is checked at every stage boundary, so a cancelled or
    timed-out request aborts between stages with
    :class:`~repro.budget.BudgetExceeded`.  (The budget is *not*
    captured by the demand-SSA conversion hooks: those can fire long
    after this request completes, against a cached program, and must
    not observe a stale request-scoped token.)
    """
    if profiler is None:
        profiler = StageProfiler()
    text = normalize_source(text)
    full_text = text
    if include_stdlib:
        full_text = text + "\n" + stdlib_source()
    if budget is not None:
        budget.check()
    # The parser bounds syntactic nesting (see
    # repro.lang.parser.MAX_NESTING), but an adversarial input can still
    # be *wide* in ways that recurse deeply downstream — e.g. a
    # thousand-term `a+a+...` chain parses iteratively yet builds a
    # left-leaning AST that the recursive type checker and IR builder
    # walk one frame per term.  Convert any such stack exhaustion into
    # the same structured MJError a syntactic overrun produces: part of
    # the hardening contract that no input crashes the pipeline.
    try:
        with profiler.stage("parse"):
            if include_stdlib:
                program = _parse_with_stdlib(text, full_text, filename)
            else:
                program = parse_program(full_text, filename)
        if budget is not None:
            budget.check()
        with profiler.stage("typecheck"):
            table = check_program(program)
        if budget is not None:
            budget.check()
        with profiler.stage("ir"):
            ir_program = build_program(program, table)
    except RecursionError:
        raise MJError(
            "program structure exceeds the analyzer's recursion limits"
        ) from None
    if budget is not None:
        budget.check()
    with profiler.stage("ssa"):
        dominators: dict[str, DominatorInfo] = {}

        def _convert(function, _dom=dominators, _prof=profiler) -> None:
            with _prof.stage("ssa"):
                _dom[function.name] = to_ssa(function)

        lazy = _DemandSSAFunctions(ir_program.functions)
        lazy.pending = {name: _convert for name in lazy}
        ir_program.functions = lazy
        # Analysis roots convert eagerly; everything else converts the
        # first time an analysis asks for its body.  Cold programs only
        # reach a fraction of the stdlib, so the unreachable remainder
        # never pays for phi placement and renaming.
        for root in ir_program.entry_points():
            _ = ir_program.functions[root]
    profiler.add_count("classes", len(table.classes))
    profiler.add_count("functions", len(ir_program.functions))
    return CompiledProgram(
        source=SourceFile(filename, full_text),
        ast=program,
        table=table,
        ir=ir_program,
        dominators=dominators,
    )
