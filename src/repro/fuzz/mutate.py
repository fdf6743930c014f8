"""Mutation fuzzer: corrupt known-good MJ sources in grammar-aware ways.

Where :mod:`repro.fuzz.grammar` generates *valid* programs to exercise
the deep pipeline, the mutator starts from real corpus programs (the
paper suite, checked-in regression crashers) and damages them — the
inputs a hardened frontend actually has to survive: unbalanced braces,
truncated files, spliced fragments, mangled literals, stray operator
soup.  The oracle's contract for these is not "analyzes fine" but
"fails *structurally*": an :class:`repro.lang.errors.MJError` with a
position, never an uncaught exception, hang, or interpreter-level
crash.

:func:`edit_session` is the third mode: instead of one corrupted input
it produces a *sequence* of mostly-valid single-function edits, the
workload of the incremental engine — its oracle
(:func:`repro.fuzz.oracle.check_edit_session`) demands byte-identical
incremental-vs-cold artifacts at every step.

All mutations draw from the supplied ``random.Random`` only, so a
mutated input is reproducible from ``(corpus, seed)``.
"""

from __future__ import annotations

import random

#: Characters the lexer cares about — injected verbatim to probe
#: tokenizer and parser edges.
_PUNCT = "{}()[];,.=+-*/%!<>&|\"'"

#: Non-ASCII characters outside MJ's ASCII lexical grammar: a letter, a
#: superscript digit, an Arabic-Indic digit and a no-break space — each
#: one ``str.isalpha``/``isdigit``/``isspace`` would accept.
_NON_ASCII = "\u00e9\u00b2\u0661\u00a0"

_KEYWORDS = (
    "class extends static void int boolean if else while for return "
    "break continue new this super null true false instanceof throw "
    "try catch"
).split()


def _delete_lines(rng: random.Random, lines: list[str]) -> list[str]:
    if not lines:
        return lines
    start = rng.randrange(len(lines))
    span = min(len(lines) - start, rng.randint(1, 5))
    return lines[:start] + lines[start + span:]


def _duplicate_line(rng: random.Random, lines: list[str]) -> list[str]:
    if not lines:
        return lines
    index = rng.randrange(len(lines))
    return lines[: index + 1] + [lines[index]] + lines[index + 1:]


def _swap_lines(rng: random.Random, lines: list[str]) -> list[str]:
    if len(lines) < 2:
        return lines
    a, b = rng.sample(range(len(lines)), 2)
    lines = list(lines)
    lines[a], lines[b] = lines[b], lines[a]
    return lines


def _truncate(rng: random.Random, lines: list[str]) -> list[str]:
    if not lines:
        return lines
    return lines[: rng.randrange(len(lines))]


def _insert_punct(rng: random.Random, lines: list[str]) -> list[str]:
    text = "\n".join(lines)
    if not text:
        return [rng.choice(_PUNCT)]
    pos = rng.randrange(len(text))
    burst = "".join(rng.choice(_PUNCT) for _ in range(rng.randint(1, 6)))
    return (text[:pos] + burst + text[pos:]).split("\n")


def _flip_char(rng: random.Random, lines: list[str]) -> list[str]:
    text = "\n".join(lines)
    if not text:
        return lines
    pos = rng.randrange(len(text))
    if rng.random() < 0.1:
        repl = rng.choice(_NON_ASCII)
    else:
        repl = chr(rng.randrange(32, 127))
    return (text[:pos] + repl + text[pos + 1:]).split("\n")


def _mangle_number(rng: random.Random, lines: list[str]) -> list[str]:
    candidates = [
        (i, j)
        for i, line in enumerate(lines)
        for j, ch in enumerate(line)
        if ch.isdigit()
    ]
    if not candidates:
        return lines
    i, j = rng.choice(candidates)
    big = rng.choice(["999999999999999999999", "-1", "2147483648", "0"])
    lines = list(lines)
    lines[i] = lines[i][:j] + big + lines[i][j + 1:]
    return lines


def _keyword_swap(rng: random.Random, lines: list[str]) -> list[str]:
    candidates = [
        i for i, line in enumerate(lines)
        if any(kw in line for kw in _KEYWORDS)
    ]
    if not candidates:
        return lines
    i = rng.choice(candidates)
    present = [kw for kw in _KEYWORDS if kw in lines[i]]
    old = rng.choice(present)
    lines = list(lines)
    lines[i] = lines[i].replace(old, rng.choice(_KEYWORDS), 1)
    return lines


def _unbalance(rng: random.Random, lines: list[str]) -> list[str]:
    bracket = rng.choice("{}()")
    candidates = [i for i, line in enumerate(lines) if bracket in line]
    if not candidates:
        return lines + [bracket]
    i = rng.choice(candidates)
    lines = list(lines)
    lines[i] = lines[i].replace(bracket, "", 1)
    return lines


def _splice(
    rng: random.Random, lines: list[str], donor: list[str]
) -> list[str]:
    if not donor:
        return lines
    dstart = rng.randrange(len(donor))
    dspan = min(len(donor) - dstart, rng.randint(1, 8))
    at = rng.randrange(len(lines) + 1)
    return lines[:at] + donor[dstart : dstart + dspan] + lines[at:]


_SINGLE = (
    _delete_lines,
    _duplicate_line,
    _swap_lines,
    _truncate,
    _insert_punct,
    _flip_char,
    _mangle_number,
    _keyword_swap,
    _unbalance,
)


def mutate_source(
    source: str,
    rng: random.Random,
    donors: list[str] | None = None,
) -> str:
    """Apply 1–4 random mutations to ``source``; deterministic in rng."""
    lines = source.split("\n")
    for _ in range(rng.randint(1, 4)):
        if donors and rng.random() < 0.2:
            donor = rng.choice(donors)
            lines = _splice(rng, lines, donor.split("\n"))
        else:
            lines = rng.choice(_SINGLE)(rng, lines)
    return "\n".join(lines)


def edit_session(
    source: str,
    rng: random.Random,
    steps: int = 6,
) -> list[tuple[str, str]]:
    """A warm-edit session: successive single-function edits of ``source``.

    Where :func:`mutate_source` damages a program once, this models the
    workload the incremental engine (:mod:`repro.incremental`) serves: a
    developer editing one function at a time.  Each step edits the
    *previous* step's text — mostly validity-preserving statement
    inserts, comment/blank-line shifts, and whitespace churn, plus the
    occasional statement deletion that may break the program (the
    incremental path must then fail exactly like a cold analysis).

    Returns up to ``steps`` ``(label, edited_source)`` pairs — fewer if
    the text stops splitting into units.  Deterministic in ``rng``.
    """
    from repro.incremental import DeclinedError, split_units

    out: list[tuple[str, str]] = []
    current = source
    for step in range(steps):
        try:
            shape = split_units(current)
        except DeclinedError:
            break
        units = shape.units
        if not units:
            break
        lines = current.split("\n")
        # Multi-line function bodies are where statement edits can land.
        bodies = [
            u
            for u in units
            if u.kind in ("method", "constructor")
            and u.end_line > u.start_line
        ]
        roll = rng.random()
        if bodies and roll < 0.40:
            label = "stmt-insert"
            m = rng.choice(bodies)
            at = rng.randrange(m.start_line, m.end_line)
            stmt = f'        String __fz{step} = "s{rng.randrange(100)}";'
            lines.insert(at, stmt)
        elif bodies and roll < 0.55:
            m = rng.choice(bodies)
            interior = range(m.start_line, m.end_line - 1)
            if interior:
                label = "stmt-dup"
                at = rng.choice(interior)
                lines.insert(at, lines[at])
            else:
                label = "stmt-insert"
                lines.insert(m.start_line, f'        String __fz{step} = "d";')
        elif bodies and roll < 0.60:
            # Destructive on purpose: both paths must reject identically.
            label = "stmt-del"
            m = rng.choice(bodies)
            interior = range(m.start_line, m.end_line - 1)
            if interior:
                del lines[rng.choice(interior)]
            else:
                del lines[m.start_line]
        elif roll < 0.78:
            label = "comment-shift"
            u = rng.choice(units)
            lines.insert(u.start_line - 1, f"// edit-session probe {step}")
        elif roll < 0.90:
            label = "blank-shift"
            u = rng.choice(units)
            lines.insert(u.start_line - 1, "")
        else:
            label = "trailing-ws"
            u = rng.choice(units)
            at = u.start_line - 1
            lines[at] = lines[at] + "  "
        current = "\n".join(lines)
        out.append((label, current))
    return out
