"""Tier launcher shared by the drills (router_smoke, restart_smoke,
chaos_soak).

:func:`spawn_tier` starts ``python -m repro.cli serve --tcp 127.0.0.1:0``
plus the drill's flags, on a given store directory, and waits for the
port of its front end: the router's when ``--shards`` is given, else
the daemon's.  Every process of the tier writes plain JSON log lines
to the one stderr pipe; a reader thread keeps draining it, so no
process blocks on a full pipe.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: How long a tier may take to report its port.
START_TIMEOUT_S = 90.0


def spawn_tier(
    serve_args: list[str], cache_dir: str, logs: list[str] | None = None
) -> tuple[subprocess.Popen, int, threading.Thread]:
    """Start the tier; return its process, front-end port and the
    thread draining its stderr (appending each line to ``logs`` when
    given; the thread ends when the tier's stderr closes).  Exits the
    drill with ``FAIL`` if the tier dies or reports no port in time."""
    env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
    env.setdefault("PYTHONPATH", SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--tcp", "127.0.0.1:0"]
        + serve_args,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    # A shard's own ``listening`` line carries no role; only the
    # router's names one.
    role = "router" if "--shards" in serve_args else None
    deadline = time.monotonic() + START_TIMEOUT_S
    port = None
    while port is None and time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line:
            stop_tier(process)
            raise SystemExit(f"FAIL: tier exited early (code {process.poll()})")
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (
            isinstance(event, dict)
            and event.get("event") == "listening"
            and event.get("role") == role
        ):
            port = int(event["port"])
    if port is None:
        stop_tier(process)
        raise SystemExit("FAIL: tier did not report a port in time")

    def drain() -> None:
        for line in process.stderr:
            if logs is not None:
                logs.append(line)

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    return process, port, reader


def stop_tier(process: subprocess.Popen) -> None:
    """Kill the tier if it is still running (a drill's cleanup)."""
    if process.poll() is None:
        process.kill()
        process.wait()
