"""Workload inputs and their reference answers.

Everything here is a pure function of the workload seed: which seed
lines each program offers, which flavor each request asks for, and the
edit scripts of every lineage.  The tier only ever sees the generated
requests.  Reference answers come from an in-process *cold* pipeline —
``analyze`` -> rich slicer -> ``slice_payload`` — which shares no cache,
store, artifact or flat-slicer code with the served path.
"""

from __future__ import annotations

import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro import AnalyzeOptions, analyze
from repro.fuzz.mutate import edit_session
from repro.lang.errors import MJError
from repro.lang.source import find_markers
from repro.server.protocol import encode_message, slice_payload
from repro.suite.loader import load_source, program_names

FLAVORS = ("thin", "traditional")

#: Seed lines drawn per program.  Slice cost varies a lot from line to
#: line, so a small pool makes a seed's mean request cost drift; a bounded
#: pool keeps the reference computation small (the rich reference slicer
#: takes up to a quarter second for one traditional slice of parsegen).
LINES_PER_PROGRAM = 16

#: Processes computing reference answers (the machine's two cores).
REFERENCE_WORKERS = 2

#: Edits per lineage.
EDITS_PER_LINEAGE = 10


def edit_schedule(edits: int) -> list[str]:
    """Edit kinds of one lineage, in order: a line shift, then four
    statement inserts, repeated.  Fixing the kinds (the seed still picks
    where each edit lands and what it inserts) keeps the mix of
    incremental outcome tiers the same on every seed."""
    return ["shift" if step % 5 == 0 else "insert" for step in range(edits)]


#: ``edit_session`` draws one ``random()`` per step to choose the edit
#: kind: below 0.40 a statement insert, 0.60-0.90 a comment or blank
#: line shift.  Statement deletions (0.55-0.60, may break the program),
#: duplications (may redeclare a local) and trailing whitespace are
#: never drawn.
_KIND_BANDS = {"insert": (0.0, 0.40), "shift": (0.60, 0.90)}
#: Edit scripts drawn per lineage before giving up on a valid one.
_REDRAWS = 20

_KIND_LABELS = {
    "insert": {"stmt-insert"},
    "shift": {"comment-shift", "blank-shift"},
}


@dataclass(frozen=True)
class Text:
    """One source text the tier is asked about."""

    filename: str
    source: str


@dataclass(frozen=True)
class Request:
    """One ``slice`` request: ``role`` is cold, edit or warm."""

    role: str
    text: int
    line: int
    flavor: str


def scale_programs(root: Path) -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((root / "tests" / "scale").glob("*.mj"))
    }


def suite_programs() -> dict[str, str]:
    return {name: load_source(name) for name in program_names()}


def _reference_task(
    filename: str,
    source: str,
    pairs: list[tuple[int, str]],
    choose: tuple[str, tuple[str, ...]] | None,
) -> dict:
    """Worker: cold-analyze one text and render reference payloads.

    With ``choose = (rng seed, flavors)`` the seed lines are drawn here
    (:func:`seed_lines`) and rendered for every flavor given.  A text
    that does not compile comes back as ``{"error": ...}``.
    """
    try:
        analyzed = analyze(source, filename, options=AnalyzeOptions())
    except MJError as exc:
        return {"error": str(exc)}
    out = {"timings": analyzed.timings, "markers": marker_names(analyzed, source)}
    if choose is not None:
        seed, flavors = choose
        out["lines"] = seed_lines(analyzed, source, random.Random(seed))
        pairs = [(line, flavor) for line in out["lines"] for flavor in flavors]
    refs = {}
    for line, flavor in pairs:
        slicer = analyzed.thin_slicer if flavor == "thin" else analyzed.traditional_slicer
        payload = slice_payload(
            slicer.slice_from_line(line), program=filename, line=line, flavor=flavor
        )
        refs[(line, flavor)] = encode_message(payload)
    out["refs"] = refs
    return out


class Corpus:
    """Texts, seed lines and reference answers for one run.

    Reference analyses run on :data:`REFERENCE_WORKERS` spawned worker
    processes (never while a timed window is open); :meth:`close` stops
    them.
    """

    def __init__(self) -> None:
        self.texts: list[Text] = []
        self._index: dict[Text, int] = {}
        #: (text, line, flavor) -> canonical reference payload bytes.
        self.references: dict[tuple[int, int, str], str] = {}
        #: ``analyze()`` stage timings of every reference analysis.
        self.timings: list[dict] = []
        self._pool: ProcessPoolExecutor | None = None

    def add(self, filename: str, source: str) -> int:
        text = Text(filename, source)
        if text not in self._index:
            self._index[text] = len(self.texts)
            self.texts.append(text)
        return self._index[text]

    def params(self, request: Request) -> dict:
        text = self.texts[request.text]
        return {
            "source": text.source,
            "filename": text.filename,
            "line": request.line,
            "flavor": request.flavor,
        }

    def _run(self, jobs: dict[int, tuple]) -> dict[int, dict]:
        """Run :func:`_reference_task` for each text id, in parallel."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                REFERENCE_WORKERS, mp_context=multiprocessing.get_context("spawn")
            )
        futures = {
            text_id: self._pool.submit(
                _reference_task,
                self.texts[text_id].filename,
                self.texts[text_id].source,
                *args,
            )
            for text_id, args in jobs.items()
        }
        results = {text_id: future.result() for text_id, future in futures.items()}
        for text_id, result in results.items():
            if "error" in result:
                continue
            self.timings.append(result["timings"])
            for (line, flavor), ref in result["refs"].items():
                self.references[(text_id, line, flavor)] = ref
        return results

    def compute_references(self, requests: Iterable[Request]) -> set[int]:
        """Render the reference of every distinct (text, line, flavor)
        not yet known; returns the ids of texts that do not compile."""
        wanted: dict[int, set[tuple[int, str]]] = {}
        for request in requests:
            key = (request.text, request.line, request.flavor)
            if key not in self.references:
                wanted.setdefault(request.text, set()).add(key[1:])
        results = self._run(
            {text_id: (sorted(pairs), None) for text_id, pairs in wanted.items()}
        )
        return {text_id for text_id, result in results.items() if "error" in result}

    def programs(
        self, programs: dict[str, str], seed: str, flavors: tuple[str, ...] = FLAVORS
    ) -> list[tuple[int, list[int], list[str]]]:
        """(text id, seed lines, marker names) per program; the
        references of every seed line in every flavor are computed."""
        ids = [self.add(f"{name}.mj", source) for name, source in programs.items()]
        results = self._run(
            {text_id: ([], (f"{seed}:{text_id}", flavors)) for text_id in ids}
        )
        for text_id in ids:
            if "error" in results[text_id]:
                raise RuntimeError(results[text_id]["error"])
        return [
            (text_id, results[text_id]["lines"], results[text_id]["markers"])
            for text_id in ids
        ]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def statement_lines(analyzed) -> set[int]:
    """Lines of the user file whose instructions have SDG nodes (the
    lines a ``slice`` request can seed from), in one pass."""
    compiled, sdg = analyzed.compiled, analyzed.sdg
    name = compiled.source.name
    return {
        instr.position.line
        for instr in compiled.ir.all_instructions()
        if instr.position.filename == name and sdg.nodes_of_instruction(instr)
    }


def seed_lines(analyzed, source: str, rng: random.Random) -> list[int]:
    """A seeded pool of lines that each hold at least one statement.

    Suite programs offer their ``//@tag:`` marker lines; programs
    without markers (the scale corpus) offer every statement line.
    """
    valid = statement_lines(analyzed)
    markers = find_markers(source).get("tag")
    if markers:
        valid &= set(markers.values())
    valid = sorted(valid)
    if len(valid) > LINES_PER_PROGRAM:
        valid = sorted(rng.sample(valid, LINES_PER_PROGRAM))
    return valid


def marker_names(analyzed, source: str) -> list[str]:
    """Names of the ``//@tag:`` markers that sit on statement lines."""
    valid = statement_lines(analyzed)
    return sorted(
        name
        for name, line in find_markers(source).get("tag", {}).items()
        if line in valid
    )


class _KindSteering(random.Random):
    """A seeded ``Random`` whose ``random()`` draws land in the band of
    the next scheduled edit kind; every other draw is untouched."""

    def __init__(self, seed: str, schedule: Iterable[str]) -> None:
        super().__init__(seed)
        self._schedule = list(schedule)

    def random(self) -> float:
        low, high = _KIND_BANDS[self._schedule.pop(0)]
        return low + (high - low) * super().random()

    def getrandbits(self, k: int) -> int:
        # Defining this keeps choice()/randrange() on getrandbits instead
        # of routing them through the overridden random().
        return super().getrandbits(k)


def edit_script(source: str, seed: str, edits: int) -> list[str]:
    """The edited texts of one lineage, following :func:`edit_schedule`."""
    schedule = edit_schedule(edits)
    rng = _KindSteering(seed, schedule)
    steps = edit_session(source, rng, steps=edits)
    if len(steps) != edits:
        raise RuntimeError(f"edit session stopped after {len(steps)} steps")
    for kind, (label, _text) in zip(schedule, steps):
        if label not in _KIND_LABELS[kind]:
            raise RuntimeError(f"edit kind {kind!r} produced {label!r}")
    return [text for _label, text in steps]


class Lineages:
    """An endless stream of edit lineages over a fixed program cycle.

    Lineage ``n`` starts from program ``n mod len(programs)`` with a
    class appended whose name is unique to the run and the lineage, so
    its structure is new to the tier and its first slice is cold.  Then
    come the scheduled edits; after each one a developer would slice
    once (role ``edit``) and then two more lines of the same text
    (``warm``).  A traced run times the cold pipeline and the
    incremental engine on these texts.
    """

    def __init__(
        self,
        corpus: Corpus,
        programs: dict[str, str],
        seed: int,
        tag: str,
        edits: int = EDITS_PER_LINEAGE,
    ) -> None:
        self.corpus = corpus
        self.edits = edits
        self.programs = list(programs.items())
        self.seed = seed
        self.tag = tag
        self.count = 0
        pool = corpus.programs(programs, f"{seed}:{tag}", flavors=())
        self._markers = {
            name: markers for (name, _), (_, _, markers) in zip(self.programs, pool)
        }

    def next_lineage(self) -> list[Request]:
        return self.draw(1)[0]

    def draw(self, count: int) -> list[list[Request]]:
        """The next ``count`` lineages, references already computed.

        ``edit_session`` may insert a statement where it does not
        compile (before a constructor's ``super(...)``, say); such a
        lineage is redrawn from its next sub-seed, so no request of the
        workload fails.
        """
        indices = list(range(self.count, self.count + count))
        self.count += count
        drawn: dict[int, list[Request]] = {}
        for attempt in range(_REDRAWS):
            pending = {i: self._draw(i, attempt) for i in indices if i not in drawn}
            if not pending:
                break
            invalid = self.corpus.compute_references(
                r for requests in pending.values() for r in requests
            )
            for index, requests in pending.items():
                if not invalid & {r.text for r in requests}:
                    drawn[index] = requests
        if len(drawn) != count:
            raise RuntimeError("no valid edit script for some lineage")
        return [drawn[i] for i in indices]

    def _draw(self, index: int, attempt: int) -> list[Request]:
        name, source = self.programs[index % len(self.programs)]
        seed = f"{self.seed}:{self.tag}:{index}:{attempt}"
        rng = random.Random(f"{seed}:requests")
        base = f"{source}\nclass Lineage{self.tag}S{self.seed}N{index} {{ int tag; }}\n"
        filename = f"{name}-{self.tag}{index}.mj"
        names = self._markers[name]

        def request(role: str, text: str, marker: str) -> Request:
            line = find_markers(text)["tag"][marker]
            return Request(
                role,
                self.corpus.add(filename, text),
                line,
                rng.choice(FLAVORS),
            )

        requests = [request("cold", base, rng.choice(names))]
        for edited in edit_script(base, f"{seed}:edits", self.edits):
            first, second, third = rng.sample(names, 3)
            requests.append(request("edit", edited, first))
            requests.append(request("warm", edited, second))
            requests.append(request("warm", edited, third))
        return requests
