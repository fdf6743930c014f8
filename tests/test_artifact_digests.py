"""Pinned digests of cold-analysis artifact bytes.

Every served slice is read from the flat artifact that
:func:`repro.parallel.analyze_artifact` returns, so a change to the
frontend (stdlib reuse, token records, positions) or to any analysis
stage must not move a single artifact byte.  Each case pins the
SHA-256 of that payload, plus a hash of the analyzed source so an
edited program fails with a clear message instead of a digest
mismatch.

Artifacts embed positions, and the stdlib is placed after the user
program, so the cases vary what the stdlib's positions depend on:
every suite program is pinned under two filenames and once more with
three leading blank lines (which shifts every stdlib line), and every
``tests/scale`` program once.

Regenerate (only when a program or the artifact format changes on
purpose):

    PYTHONPATH=src python tests/test_artifact_digests.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.parallel import analyze_artifact
from repro.suite.loader import load_source, program_names

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "artifact_digests.json"
SCALE_DIR = HERE / "scale"


def _cases() -> dict[str, tuple[str, str]]:
    """case id -> (source, filename)."""
    cases = {}
    for name in program_names():
        source = load_source(name)
        cases[f"{name}@{name}.mj"] = (source, f"{name}.mj")
        cases[f"{name}@input"] = (source, "<input>")
        cases[f"{name}+3@{name}.mj"] = ("\n\n\n" + source, f"{name}.mj")
    for path in sorted(SCALE_DIR.glob("*.mj")):
        cases[f"scale:{path.stem}"] = (path.read_text(), path.name)
    return cases


def _record(source: str, filename: str) -> dict[str, str]:
    payload, _ = analyze_artifact(source, filename)
    return {
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
        "artifact_sha256": hashlib.sha256(payload).hexdigest(),
    }


_CASES = _cases()
_PINNED = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_every_case_is_pinned():
    assert sorted(_PINNED) == sorted(_CASES)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_artifact_matches_pinned_digest(case):
    source, filename = _CASES[case]
    pinned = _PINNED[case]
    got = _record(source, filename)
    assert got["source_sha256"] == pinned["source_sha256"], (
        f"{case}: the analyzed program changed; regenerate the digests"
    )
    assert got["artifact_sha256"] == pinned["artifact_sha256"], case


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_artifact_digests.py --regenerate")
    pinned = {case: _record(*spec) for case, spec in sorted(_CASES.items())}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} digests to {DIGESTS}")
