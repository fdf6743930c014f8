"""The stdlib is parsed once per process and copied per compile.

Every ``include_stdlib=True`` compile appends the stdlib's classes to
the user program.  They come from one per-process parse, copied with
positions shifted past the user text and stamped with its filename, so
a cold analysis pays only for the user's program.  These tests pin
that the copy is exactly what parsing the concatenated text gives, that
new filenames and line counts do not parse the stdlib again, and that
pool workers arrive with the parse (and a frozen heap) already done.

Task functions live at module level so spawn children can unpickle
them by import (``tests.test_stdlib_reuse``).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro import analyze, frontend
from repro.frontend import (
    _parse_with_stdlib,
    normalize_source,
    stdlib_source,
)
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.parallel import ProcessPool
from repro.suite.loader import load_source, program_names


@contextmanager
def stdlib_parse_counter():
    """Count the frontend's ``Parser`` runs over the stdlib's tokens."""
    stdlib_texts = [t.text for t in tokenize(stdlib_source())]
    real = frontend.Parser
    runs = []

    class CountingParser(real):
        def __init__(self, tokens):
            super().__init__(tokens)
            if [t.text for t in tokens] == stdlib_texts:
                runs.append(tokens[0].position)

    frontend.Parser = CountingParser
    try:
        yield runs
    finally:
        frontend.Parser = real


def first_task_report(source: str) -> tuple[int, int]:
    """(stdlib parses while analyzing ``source``, frozen object count)."""
    frozen = gc.get_freeze_count()
    with stdlib_parse_counter() as runs:
        analyze(source, "first-task.mj")
    return len(runs), frozen


@pytest.mark.parametrize("name", program_names())
@pytest.mark.parametrize("leading", ["", "\n\n\n"])
@pytest.mark.parametrize("filename", ["<input>", "prog.mj"])
def test_stdlib_copy_equals_the_concatenated_parse(name, leading, filename):
    text = normalize_source(leading + load_source(name))
    full_text = text + "\n" + stdlib_source()
    program = _parse_with_stdlib(text, full_text, filename)
    reference = parse_program(full_text, filename)
    # Node equality covers every position (line, column, filename).
    assert program == reference


def test_new_filenames_and_line_counts_parse_the_stdlib_once():
    source = load_source("figure2")
    with stdlib_parse_counter() as runs:
        for index in range(3):
            analyze("\n" * index + source, f"stdlib-once-{index}.mj")
    assert len(runs) <= 1, runs


def test_fresh_pool_worker_arrives_warm_and_frozen():
    with ProcessPool(workers=1) as pool:
        parses, frozen = pool.run(first_task_report, load_source("figure1"))
    assert parses == 0
    assert frozen > 0
