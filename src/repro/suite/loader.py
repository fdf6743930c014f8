"""Loading of suite programs (``.mj`` files shipped as package data)."""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

_PROGRAMS_DIR = Path(__file__).parent / "programs"


@lru_cache(maxsize=None)
def shipped_programs() -> frozenset[str]:
    """All shipped program names (file stems), stdlib excluded.

    Package data is fixed for the process, so the directory is globbed
    once.
    """
    return frozenset(
        p.stem for p in _PROGRAMS_DIR.glob("*.mj") if p.stem != "stdlib"
    )


def program_names() -> list[str]:
    """All shipped program names, sorted."""
    return sorted(shipped_programs())


@lru_cache(maxsize=None)
def load_source(name: str) -> str:
    """Raw text of the named suite program (or 'stdlib')."""
    path = _PROGRAMS_DIR / f"{name}.mj"
    if not path.exists():
        raise FileNotFoundError(f"no suite program named {name!r}")
    return path.read_text()


def load_stdlib() -> str:
    return load_source("stdlib")
