"""Multi-core execution: a spawn-safe, warm-reusable process pool.

The daemon's worker threads serialize CPU-bound analysis under the GIL,
so N threads on N cores deliver ~1x cold throughput.  This module moves
the analysis itself into worker *processes* while keeping the serving
logic (admission, cancellation, counters) in the parent's threads:

* **Spawn-safe** — workers are started with the ``spawn`` context, so a
  heavily threaded daemon never forks a copy of its own locks.  Workers
  are warm: each survives across tasks, keeping the imported package
  and the frontend's stdlib caches, so only the first task per worker
  pays start-up cost.
* **Per-task deadline enforcement** — a :class:`repro.budget.Budget`
  cannot be polled across a process boundary, so the parent enforces it
  from outside: the thread waiting on a worker polls the budget between
  pipe reads and, when it expires (deadline or cross-thread cancel),
  **kills the worker process** and respawns a replacement in the
  background.  The waiting thread unwinds with the usual
  :class:`~repro.budget.BudgetExceeded`, so the daemon's cancellation
  accounting is identical across executors.
* **Structured error transport** — a task that raises inside a worker
  comes back as :class:`WorkerError` carrying the original exception's
  type name, message, and traceback text; a worker that dies (crash,
  OOM-kill, injected fault) surfaces as :class:`WorkerCrashed`.  Raw
  pickled exception objects never cross the boundary.

**Flat artifacts.**  Workers return *flat artifact bytes*
(:func:`repro.artifact.encode_artifact`) rather than a monolithic
pickle: the parent stores the bytes unchanged into the disk tier and
opens an :class:`~repro.artifact.ArtifactView` over them — no unpickle
of the whole object graph on the hot path.  The encoder sorts each
node's edges, so the whole artifact is a pure function of
``(source, options, package version)`` — byte-identical across workers,
restarts, and machines by construction, where the retired pickle path
needed ``PYTHONHASHSEED`` pinning plus ``None``-free hash tuples to get
the same guarantee.  (The pinned seed in :data:`DEFAULT_CHILD_ENV` is
kept: it keeps worker behavior reproducible run-to-run, which the fault
drills and benchmarks still appreciate.)
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.budget import Budget, BudgetExceeded
from repro.resources import (
    ResourceExceeded,
    apply_memory_rlimit,
    clear_memory_rlimit,
    process_rss_mb,
)

#: Environment pinned into every worker at spawn time.  A fixed hash
#: seed makes str-keyed set iteration deterministic across worker
#: processes — no longer load-bearing for artifact bytes (the flat
#: encoder sorts its sections), just run-to-run reproducibility.
DEFAULT_CHILD_ENV = {"PYTHONHASHSEED": "0"}

#: How long to wait for a freshly spawned worker's ready handshake.
SPAWN_TIMEOUT_S = 120.0

#: Poll interval while waiting on a busy worker (budget checks and
#: crash detection happen at this cadence).
_WAIT_SLICE_S = 0.05

#: Exit code used by the injected ``worker_process_crash`` fault, so a
#: drill-induced death is recognizable in logs.
CRASH_EXIT_CODE = 23

#: Serializes the os.environ mutation around Process.start(): the
#: ``spawn`` context passes the *current* environment to the child, so
#: the pinned child env must be installed exactly for the duration of
#: the start call.
_SPAWN_ENV_LOCK = threading.Lock()


class WorkerError(RuntimeError):
    """A task failed inside a worker; the original error, transported.

    ``error_type`` is the remote exception's class name (``MJSyntaxError``,
    ``ValueError``, ...), so the daemon can answer with exactly the same
    structured error type an in-process analysis would have produced.
    """

    def __init__(
        self, error_type: str, message: str, traceback_text: str = ""
    ) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message
        self.traceback_text = traceback_text


class WorkerCrashed(WorkerError):
    """A worker process died mid-task (crash, kill, injected fault)."""

    def __init__(self, message: str) -> None:
        super().__init__("WorkerCrashed", message)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _worker_main(conn: multiprocessing.connection.Connection) -> None:
    """Task loop of one worker process: recv task, run, send result.

    Failures are transported as ``("error", {...})`` payloads; only a
    process death (never an exception) leaves the loop without a
    response, and the parent detects that as EOF on the pipe.
    """
    from repro.ir.instructions import reset_instruction_uids

    conn.send(("ready", os.getpid()))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:  # graceful shutdown sentinel
            break
        fn, args, kwargs = task
        # No instruction outlives a task, so rewinding the uid counter
        # is safe here (and only here): it keeps instruction uids
        # identical across workers and restarts.  A serving parent
        # must never do this: with the thread executor several cold
        # analyses draw uids at once, and a rewind would hand one live
        # program's uids to another.  The two schemes coexist
        # because artifact bytes encode call sites as *ranks* within
        # the uid order, not absolute uids, so a worker's payload and
        # one encoded in the parent stay byte-identical.
        reset_instruction_uids()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            payload = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            try:
                conn.send(("error", payload))
            except (OSError, ValueError):
                break
        else:
            try:
                conn.send(("ok", result))
            except (OSError, ValueError):
                break
    conn.close()


def analyze_artifact(
    source: str,
    filename: str = "<input>",
    options: Any = None,
    *,
    memory_limit_mb: float = 0.0,
    inject_delay_s: float = 0.0,
    inject_crash: bool = False,
    inject_alloc_mb: float = 0.0,
) -> tuple[bytes, dict | None]:
    """One cold analysis, returned as flat artifact bytes.

    The single cold-miss path of the serving cache: a pool worker runs
    it as a task, and the cache calls it in-process when no process
    executor is attached (the fault dials and the memory backstop stay
    at their defaults there).

    Returns ``(payload, timings)`` where ``payload`` is the
    :func:`~repro.artifact.encode_artifact` bytes (deterministic — see
    module docstring), stamped with the request's content key, and
    ``timings`` is the run's stage profile, shipped separately because
    wall times are per-run observability data, not artifact content.

    ``memory_limit_mb`` installs the in-worker ``RLIMIT_AS`` backstop
    (with headroom — the parent's RSS poll is the primary sentinel) and
    converts the resulting ``MemoryError`` into a structured
    :class:`~repro.resources.ResourceExceeded` for transport.

    ``inject_delay_s`` / ``inject_crash`` / ``inject_alloc_mb`` are the
    process-level fault dials (see
    :class:`repro.server.faults.FaultPlan`): the delay is a plain
    *non-cooperative* sleep — only a parent-side kill can end it early —
    the crash exits the process without a response, and the allocation
    pins that much extra RSS for long enough that the parent's memory
    poll observes it.
    """
    if inject_delay_s > 0:
        time.sleep(inject_delay_s)
    if inject_crash:
        os._exit(CRASH_EXIT_CODE)
    limited = memory_limit_mb > 0 and apply_memory_rlimit(memory_limit_mb)
    try:
        ballast = None
        if inject_alloc_mb > 0:
            try:
                ballast = bytearray(int(inject_alloc_mb * 1024 * 1024))
                # Hold the ballast across several parent poll cycles so
                # the RSS sentinel (50 ms cadence) reliably observes it.
                time.sleep(0.5)
            except MemoryError:
                raise ResourceExceeded(
                    "memory",
                    f"worker exceeded the {memory_limit_mb:g} MiB memory "
                    "limit (allocation failed under the rlimit backstop)",
                    limit_mb=memory_limit_mb,
                ) from None
        from repro import AnalyzeOptions, analyze
        from repro.artifact import content_key, encode_artifact

        # The frontend's stdlib AST cache bakes the filename string into
        # positions it reuses across analyses; interning keeps a warm
        # worker from mixing last task's string into this task's graph.
        filename = sys.intern(filename)
        try:
            resolved = options or AnalyzeOptions()
            analyzed = analyze(source, filename, options=resolved)
            payload = encode_artifact(
                analyzed, key=content_key(source, resolved)
            )
        except MemoryError:
            raise ResourceExceeded(
                "memory",
                f"worker exceeded the {memory_limit_mb:g} MiB memory limit "
                "(rlimit backstop fired mid-analysis)",
                limit_mb=memory_limit_mb,
            ) from None
        del ballast
        return payload, analyzed.timings
    finally:
        if limited:
            clear_memory_rlimit()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    process: Any
    conn: multiprocessing.connection.Connection
    pid: int
    tasks_done: int = 0
    #: Highest RSS sample observed for this worker (parent-side poll).
    peak_rss_mb: float = 0.0


@dataclass
class PoolStats:
    """Monotonic counters; read via :meth:`ProcessPool.stats`."""

    spawned_total: int = 0
    respawns: int = 0
    crashes: int = 0
    kills: int = 0
    #: Kills specifically for exceeding a task's memory limit (also
    #: counted in ``kills``).
    memory_kills: int = 0
    tasks_total: int = 0
    #: Highest RSS sample ever observed across all workers (MiB).
    peak_rss_mb: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "spawned_total": self.spawned_total,
            "respawns": self.respawns,
            "crashes": self.crashes,
            "kills": self.kills,
            "memory_kills": self.memory_kills,
            "tasks_total": self.tasks_total,
            "peak_rss_mb": round(self.peak_rss_mb, 1),
        }


class ProcessPool:
    """A warm pool of spawn-context worker processes.

    Tasks are module-level callables plus picklable arguments.
    :meth:`run` is synchronous and budget-aware: the calling thread
    owns one worker for the duration of the task and enforces the
    budget from outside the process (kill + background respawn).

    Workers are spawned lazily by default — a pool that never sees a
    cold analysis never pays a spawn — and kept warm afterwards; call
    :meth:`prestart` to pay all spawn costs up front (the daemon does
    this at boot).
    """

    def __init__(
        self,
        workers: int = 2,
        child_env: dict[str, str] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.child_env = (
            dict(DEFAULT_CHILD_ENV) if child_env is None else dict(child_env)
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._cond = threading.Condition()
        self._idle: list[_Worker] = []
        self._live = 0  # spawned or being spawned, including busy workers
        self._closed = False
        self.counters = PoolStats()
        #: Peak RSS per live worker pid (pruned when a worker dies);
        #: surfaced through :meth:`stats` for the health RPC.
        self._worker_peaks: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> _Worker:
        """Start one worker (caller already reserved a ``_live`` slot)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True
        )
        # The spawn context re-runs the parent's __main__ in the child
        # when it looks like a plain script.  A REPL/stdin parent has
        # __file__ == "<stdin>" (no spec), which the child cannot
        # re-run; hiding the phantom __file__ for the duration of
        # start() makes spawn skip the main-module fixup entirely.
        main_module = sys.modules.get("__main__")
        phantom_main = (
            main_module is not None
            and getattr(main_module, "__spec__", None) is None
            and hasattr(main_module, "__file__")
            and not os.path.exists(getattr(main_module, "__file__", "") or "")
        )
        with _SPAWN_ENV_LOCK:
            saved: dict[str, str | None] = {}
            for key, value in self.child_env.items():
                saved[key] = os.environ.get(key)
                os.environ[key] = value
            if phantom_main:
                saved_file = main_module.__file__
                del main_module.__file__
            try:
                process.start()
            finally:
                if phantom_main:
                    main_module.__file__ = saved_file
                for key, value in saved.items():
                    if value is None:
                        os.environ.pop(key, None)
                    else:
                        os.environ[key] = value
        child_conn.close()
        if not parent_conn.poll(SPAWN_TIMEOUT_S):
            process.kill()
            process.join(timeout=5)
            parent_conn.close()
            raise WorkerCrashed("worker failed its ready handshake")
        status, pid = parent_conn.recv()
        assert status == "ready", status
        with self._cond:
            self.counters.spawned_total += 1
        return _Worker(process=process, conn=parent_conn, pid=pid)

    def prestart(self, wait: bool = True) -> None:
        """Spawn up to ``workers`` idle workers now instead of lazily."""
        spawned: list[threading.Thread] = []
        while True:
            with self._cond:
                if self._closed or self._live >= self.workers:
                    break
                self._live += 1
            thread = threading.Thread(target=self._spawn_into_idle, daemon=True)
            thread.start()
            spawned.append(thread)
        if wait:
            for thread in spawned:
                thread.join()

    def _spawn_into_idle(self) -> None:
        try:
            worker = self._spawn_worker()
        except Exception:
            with self._cond:
                self._live -= 1
                self._cond.notify_all()
            return
        with self._cond:
            if self._closed:
                self._shutdown_worker(worker)
                self._live -= 1
            else:
                self._idle.append(worker)
            self._cond.notify_all()

    def close(self) -> None:
        """Stop every worker; busy ones are killed (shutdown semantics)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for worker in idle:
            self._shutdown_worker(worker)

    def _shutdown_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.send(None)
        except (OSError, ValueError):
            pass
        worker.process.join(timeout=2)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join(timeout=5)
        worker.conn.close()
        with self._cond:
            self._worker_peaks.pop(worker.pid, None)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        /,
        *args: Any,
        budget: Budget | None = None,
        rss_limit_mb: float | None = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` on a worker; block for the result.

        While waiting, the budget is polled every ~50 ms; on expiry or
        cross-thread cancellation the worker process is **killed**, a
        replacement is respawned in the background, and
        :class:`~repro.budget.BudgetExceeded` propagates exactly as a
        cooperative in-process cancellation would.

        ``rss_limit_mb`` arms the memory sentinel on the same cadence:
        each wake samples the worker's resident set (and records its
        peak); a worker that outgrows the limit is killed and respawned
        exactly like a deadline overrun, but the caller unwinds with a
        structured :class:`~repro.resources.ResourceExceeded` instead
        of an uncontrolled OOM kill taking the worker (or the host)
        down.  Where RSS cannot be sampled the in-worker rlimit
        backstop (see :func:`analyze_artifact`) is the only cap.
        """
        worker = self._acquire(budget)
        healthy = False
        sample_rss = True  # turned off after a failed /proc read
        try:
            try:
                worker.conn.send((fn, args, kwargs))
            except (OSError, ValueError):
                self._discard(worker, crashed=True)
                raise WorkerCrashed(
                    f"worker pid {worker.pid} died between tasks"
                ) from None
            while True:
                try:
                    if worker.conn.poll(_WAIT_SLICE_S):
                        status, payload = worker.conn.recv()
                        worker.tasks_done += 1
                        with self._cond:
                            self.counters.tasks_total += 1
                        if status == "ok":
                            healthy = True
                            return payload
                        healthy = True
                        raise WorkerError(
                            payload["type"],
                            payload["message"],
                            payload.get("traceback", ""),
                        )
                except (EOFError, OSError):
                    exit_code = self._discard(worker, crashed=True)
                    raise WorkerCrashed(
                        f"analysis worker pid {worker.pid} died mid-task "
                        f"(exit code {exit_code})"
                    ) from None
                if sample_rss:
                    rss = process_rss_mb(worker.pid)
                    if rss is None:
                        sample_rss = False
                    else:
                        self._note_rss(worker, rss)
                        if rss_limit_mb is not None and rss > rss_limit_mb:
                            self._discard(worker, crashed=False, memory=True)
                            raise ResourceExceeded(
                                "memory",
                                f"analysis worker pid {worker.pid} exceeded "
                                f"the {rss_limit_mb:g} MiB memory limit "
                                f"(observed {rss:.0f} MiB RSS); worker "
                                "killed and respawned",
                                limit_mb=rss_limit_mb,
                                observed_mb=rss,
                            )
                if budget is not None and budget.expired():
                    self._discard(worker, crashed=False)
                    budget.check()  # raises with the precise reason
                    raise BudgetExceeded(  # pragma: no cover — check() raced
                        "deadline", "budget expired while awaiting a worker"
                    )
        finally:
            if healthy:
                self._release(worker)

    def _note_rss(self, worker: _Worker, rss: float) -> None:
        """Record one RSS sample into the per-worker and pool peaks."""
        if rss <= worker.peak_rss_mb:
            return
        worker.peak_rss_mb = rss
        with self._cond:
            self._worker_peaks[worker.pid] = rss
            if rss > self.counters.peak_rss_mb:
                self.counters.peak_rss_mb = rss

    def _acquire(self, budget: Budget | None) -> _Worker:
        """Claim an idle worker, spawning one if below capacity."""
        while True:
            with self._cond:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._live < self.workers:
                    self._live += 1
                    break
                self._cond.wait(_WAIT_SLICE_S)
            if budget is not None:
                budget.check()
        try:
            return self._spawn_worker()
        except BaseException:
            with self._cond:
                self._live -= 1
                self._cond.notify_all()
            raise

    def _release(self, worker: _Worker) -> None:
        with self._cond:
            if self._closed:
                pass  # fall through to shutdown outside the lock
            else:
                self._idle.append(worker)
                self._cond.notify_all()
                return
        self._shutdown_worker(worker)

    def _discard(
        self, worker: _Worker, crashed: bool, memory: bool = False
    ) -> int | None:
        """Kill a bad/overdue worker, free its slot, respawn in background."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5)
        exit_code = worker.process.exitcode
        worker.conn.close()
        with self._cond:
            self._live -= 1
            self._worker_peaks.pop(worker.pid, None)
            if crashed:
                self.counters.crashes += 1
            else:
                self.counters.kills += 1
                if memory:
                    self.counters.memory_kills += 1
            self.counters.respawns += 1
            closed = self._closed
            self._cond.notify_all()
        if not closed:
            # Replace the dead worker off the caller's critical path so
            # the daemon's slot (busy counter) frees immediately.
            with self._cond:
                if self._live < self.workers:
                    self._live += 1
                    threading.Thread(
                        target=self._spawn_into_idle, daemon=True
                    ).start()
        return exit_code

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._cond:
            return {
                "workers": self.workers,
                "live": self._live,
                "idle": len(self._idle),
                "worker_peak_rss_mb": {
                    str(pid): round(peak, 1)
                    for pid, peak in sorted(self._worker_peaks.items())
                },
                **self.counters.as_dict(),
            }

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
