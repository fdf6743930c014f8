"""Spawn a ``repro serve`` tier and observe its processes from outside.

The tier runs with the CLI's default serve flags; only the deployment
settings are passed: ``--tcp`` on an ephemeral port, ``--cache-dir`` on
a fresh directory, and ``--shards`` for a routed tier.  Everything the
benchmark learns about the processes (pids, peak RSS, CPU time) comes
from ``/proc``; nothing inside the program is changed or patched.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Iterator

from repro.frontend import source_fingerprint
from repro.server.client import ServerError, SliceClient
from repro.server.ring import HashRing

SPAWN_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 20.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36


class TierError(RuntimeError):
    """The tier could not be started or did not become healthy."""


def _stat(pid: int | str) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, pgrp, session, ...), or None once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _processes() -> Iterator[tuple[int, list[str]]]:
    """(pid, stat fields) of every process."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat(entry)
            if fields is not None:
                yield int(entry), fields


def session_pids(session: int) -> list[int]:
    """Every live (not zombie) process of ``session``, orphaned ones
    included: a process keeps its session when it is re-parented."""
    return [
        pid for pid, fields in _processes()
        if fields[0] != "Z" and int(fields[3]) == session
    ]


def adopt_orphans() -> None:
    """Make this process the parent of every orphan among its descendants.

    A tier process can outlive its parent: a shard's ``multiprocessing``
    resource tracker exits only after the shard and its pool workers.  It
    would be re-parented to init, which may leave it a zombie for seconds
    after the run; re-parented here, :meth:`Tier.stop` collects it.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        errno = ctypes.get_errno()
        raise OSError(errno, os.strerror(errno))


def _reap(session: int) -> None:
    """Collect every ended process of ``session`` re-parented to this one."""
    me = os.getpid()
    for pid, fields in _processes():
        if fields[0] == "Z" and int(fields[1]) == me and int(fields[3]) == session:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass


def stop_children() -> int:
    """Stop and collect every process this one still has as a child;
    returns how many had to be killed.

    Tiers are stopped and collected by :meth:`Tier.stop`.  What is left is
    the reference workers (killed here only if an error skipped their
    orderly shutdown) and the ``multiprocessing`` resource tracker, which
    would otherwise exit only after this process did.
    """
    tracker = resource_tracker._resource_tracker
    me = os.getpid()
    killed = 0
    while children := [
        (pid, fields) for pid, fields in _processes()
        if int(fields[1]) == me and pid != tracker._pid
    ]:
        for pid, fields in children:
            try:
                if fields[0] != "Z":
                    os.kill(pid, signal.SIGKILL)
                    killed += 1
                os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass
    # Closing the tracker's pipe makes it exit; _stop waits until it has.
    tracker._stop()
    return killed


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _cpu_s(pid: int) -> float:
    fields = _stat(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Tier:
    """One spawned serving tier: a single daemon or a router over shards."""

    def __init__(self, root: Path, run_dir: Path, shards: int = 0) -> None:
        self.root = root
        self.run_dir = run_dir
        self.shards = shards
        self.store_dir = run_dir / "store"
        self.log_path = run_dir / "tier.log"
        self.flags = ["--tcp", "127.0.0.1:0", "--cache-dir", str(self.store_dir)]
        if shards:
            self.flags += ["--shards", str(shards)]
        self.process: subprocess.Popen | None = None
        self.port = 0
        #: Shard addresses (routed tier) or the daemon's own address.
        self.daemons: list[str] = []
        self.pids_seen: set[int] = set()
        self.forced_kills = 0

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    def serve_flags(self) -> list[str]:
        """The flags as recorded in provenance (paths made relative)."""
        return [
            os.path.relpath(flag, self.root) if flag == str(self.store_dir) else flag
            for flag in self.flags
        ]

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Spawn the tier and block until every daemon answers health
        with its process pool started."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", *self.flags],
                cwd=self.root,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
                env=env,
                start_new_session=True,
            )
        self.port = self._await_port()
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            try:
                with self.client(timeout=5.0) as client:
                    health = client.health()
            except (ServerError, OSError):
                health = None
            if health is not None and self._healthy(health):
                break
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise TierError(f"tier did not become healthy; see {self.log_path}")
            time.sleep(0.02)
        if self.shards:
            self.daemons = sorted(health["shards"])
        else:
            self.daemons = [f"127.0.0.1:{self.port}"]
        self._ring = HashRing(self.daemons)
        # Ready means every daemon's process pool has started its workers
        # (they spawn in the background), so no cold slice waits on one.
        while not all(self._pool_ready(h) for h in self.daemon_health().values()):
            if time.monotonic() > deadline:
                raise TierError(f"process pools did not start; see {self.log_path}")
            time.sleep(0.02)
        self.pids_seen.update(self.pids())

    @staticmethod
    def _pool_ready(health: dict[str, Any]) -> bool:
        pool = health.get("pool")
        return pool is None or pool.get("idle", 0) >= pool.get("workers", 0)

    def owner(self, source: str) -> str:
        """The daemon that owns ``source``: the router's ring placement
        (the daemon itself when there is no router)."""
        return self._ring.preference(source_fingerprint(source, True))[0]

    def _healthy(self, health: dict[str, Any]) -> bool:
        if self.shards:
            return health.get("healthy_shards") == self.shards
        return bool(health.get("healthy"))

    def _await_port(self) -> int:
        """Read the front end's ``listening`` log line (shard lines are
        echoed with a ``[shard ...]`` prefix and never match)."""
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                for line in log:
                    if not line.startswith("{"):
                        continue
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if event.get("event") != "listening":
                        continue
                    if self.shards and event.get("role") != "router":
                        continue
                    return int(event["port"])
            if self.process.poll() is not None:
                raise TierError(f"tier exited early; see {self.log_path}")
            time.sleep(0.02)
        raise TierError("tier did not report a port in time")

    def client(self, address: str | None = None, timeout: float = 60.0) -> SliceClient:
        """A client with retries off: every failure is counted, none hidden."""
        host, port = (address or f"127.0.0.1:{self.port}").rsplit(":", 1)
        return SliceClient.connect(host, int(port), timeout=timeout, retries=0)

    def stop(self) -> dict[str, Any]:
        """Shut the tier down and confirm that no process of its session
        is left.

        A graceful ``shutdown`` comes first.  Whatever of the session is
        still alive after :data:`EXIT_TIMEOUT_S` is killed and counted in
        ``forced_kills``: a shard respawned during the drain, or one
        orphaned when the router exited first, included.
        """
        if self.process is None:
            return {"pids": 0, "forced_kills": 0}
        try:
            with self.client(timeout=5.0) as client:
                client.request("shutdown")
        except (ServerError, OSError):
            pass
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while (live := self.pids()) and time.monotonic() < deadline:
            self.pids_seen.update(live)
            self.process.poll()
            time.sleep(0.05)
        killed: set[int] = set()
        deadline = time.monotonic() + EXIT_TIMEOUT_S
        while live := self.pids():
            if time.monotonic() > deadline:
                raise TierError("tier processes survived SIGKILL")
            self.pids_seen.update(live)
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)
        self.forced_kills = len(killed)
        self.process.wait(timeout=EXIT_TIMEOUT_S)
        _reap(self.process.pid)
        self.process = None
        return {"pids": len(self.pids_seen), "forced_kills": self.forced_kills}

    # -- observation -----------------------------------------------------

    def pids(self) -> list[int]:
        """Every live process of the tier: the front end and all it
        started (shards, pool workers), each in the tier's own session."""
        return session_pids(self.process.pid) if self.process is not None else []

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of every live tier process."""
        return sum(_status_kb(pid, "VmHWM") for pid in self.pids()) / 1024

    def cpu_s(self) -> float:
        """CPU seconds consumed so far by the live tier processes."""
        return sum(_cpu_s(pid) for pid in self.pids())

    def store_mb(self) -> float:
        total = 0
        for path in self.store_dir.rglob("*"):
            try:
                if path.is_file():
                    total += path.stat().st_size
            except OSError:
                continue
        return total / (1024 * 1024)

    def daemon_health(self) -> dict[str, dict[str, Any]]:
        """``health`` of every daemon, asked directly (not via the router)."""
        out = {}
        for address in self.daemons:
            with self.client(address, timeout=10.0) as client:
                out[address] = client.health()
        return out

    def daemon_stats(self) -> dict[str, dict[str, Any]]:
        out = {}
        for address in self.daemons:
            with self.client(address, timeout=10.0) as client:
                out[address] = client.stats()
        return out

    def router_health(self) -> dict[str, Any] | None:
        if not self.shards:
            return None
        with self.client(timeout=10.0) as client:
            return client.health()
