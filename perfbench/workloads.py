"""The workloads: topology, warming and timed traffic.

``warm_hot``   routed 2-shard tier, 2 connections, 8 suite programs that
               fit every shard's memory LRU: every answer is ``memory``.
``warm_spill`` single daemon, 2 connections, 12 suite + 4 scale programs
               (twice the default memory capacity of 8) in a fixed cyclic
               order: nearly every answer is ``disk`` (page-cached bytes).

Each request has a role: ``cold`` (the set-up's first slice of each
program, which the fresh tier has never seen) or ``warm`` (every slice
of the timed window).  ``cold_p50_ms`` comes from the first, the warm
quantiles and throughput from the second; no other traffic is sent
outside a traced run.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from perfbench.corpus import FLAVORS, Corpus, Request, scale_programs, suite_programs

#: Eight programs fit each shard's default memory capacity (8) even if
#: the ring put all of them on one shard.
WARM_HOT_PROGRAMS = (
    "jtopas",
    "minibuild",
    "minijavac",
    "minixml",
    "parsegen",
    "raytrace",
    "rules",
    "xmlsec",
)


@dataclass
class Plan:
    shards: int
    connections: int
    corpus: Corpus
    #: The first slice of every program, sent once per set-up.
    warming: list[Request]
    #: The timed traffic, in order, shared by every set-up's window.
    main: Iterator[Request]


def _program_pool(
    corpus: Corpus,
    programs: dict[str, str],
    seed: str,
    flavors: tuple[str, ...] = FLAVORS,
) -> list[tuple[int, list[int], tuple[str, ...]]]:
    """(text id, seed lines, flavors) per program, references computed."""
    return [
        (text_id, lines, flavors)
        for text_id, lines, _ in corpus.programs(programs, seed, flavors)
    ]


def _warm(rng: random.Random, entry) -> Request:
    text_id, lines, flavors = entry
    return Request("warm", text_id, rng.choice(lines), rng.choice(flavors))


def _warming(pool) -> list[Request]:
    return [Request("cold", t, lines[0], "thin") for t, lines, _ in pool]


def plan_warm_hot(root: Path, seed: int) -> Plan:
    corpus = Corpus()
    rng = random.Random(f"{seed}:warm_hot")
    suite = suite_programs()
    pool = _program_pool(
        corpus, {n: suite[n] for n in WARM_HOT_PROGRAMS}, f"{seed}:warm_hot"
    )

    def main() -> Iterator[Request]:
        while True:
            yield _warm(rng, rng.choice(pool))

    return Plan(
        shards=2, connections=2, corpus=corpus, warming=_warming(pool), main=main()
    )


def plan_warm_spill(root: Path, seed: int) -> Plan:
    corpus = Corpus()
    rng = random.Random(f"{seed}:warm_spill")
    # Scale programs are asked for thin slices only: one traditional
    # slice of the larger two takes the rich reference slicer up to 0.8 s.
    pool = _program_pool(corpus, suite_programs(), f"{seed}:warm_spill") + _program_pool(
        corpus, scale_programs(root), f"{seed}:warm_spill", flavors=("thin",)
    )

    def main() -> Iterator[Request]:
        for entry in itertools.cycle(pool):
            yield _warm(rng, entry)

    return Plan(
        shards=0, connections=2, corpus=corpus, warming=_warming(pool), main=main()
    )


PLANS = {
    "warm_hot": plan_warm_hot,
    "warm_spill": plan_warm_spill,
}
