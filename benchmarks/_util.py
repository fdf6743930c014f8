"""Result formatting shared by the benchmark modules."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a table and persist it under results/."""
    print()
    print(text)
    (results_dir / name).write_text(text + "\n")


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Minimal fixed-width table renderer."""
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def environment() -> dict[str, object]:
    """Where a result was measured: core count, Python, and commit."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
    }
