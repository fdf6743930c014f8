"""The analysis daemon: dispatcher, serving loops, observability.

Design rules:

* **Error isolation** — ``handle_line`` never raises.  A query that
  throws (bad params, MJ compile error, an analysis bug) produces a
  structured error response; the daemon keeps serving.
* **Cooperative cancellation** — every analysis request carries a
  :class:`repro.budget.Budget` (wall-clock deadline + cancellation
  flag) that the pipeline hot loops poll.  A timed-out or
  client-abandoned request doesn't just get an error response: its
  worker thread observes the cancelled budget and unwinds within
  milliseconds, so pathological programs cannot wedge the pool.
* **Admission control** — a memory or disk hit for ``slice``,
  ``explain``, ``why``, ``chop`` or ``stats`` over a program is
  answered on the connection thread and never queues; only a miss
  goes to the worker pool.  At most ``max_queue`` misses may wait for
  a worker; beyond that the daemon sheds load with a fast structured
  ``Overloaded`` error instead of silently piling work up.
* **Observability** — every request is timed and counted per method,
  and its structured (JSON) log line is handed to a bounded
  :class:`~repro.server.requestlog.RequestLog` whose writer thread
  formats and writes it off the request path (records a full buffer
  drops are counted as ``log_dropped``).  The ``stats`` RPC with no
  program argument returns the counters plus cache hit/miss numbers,
  and the ``health`` RPC reports busy/queued workers (pool work only)
  without ever touching the worker pool.
* **Input hardening** — requests whose analysis repeatedly *kills a
  worker process* (crash or memory-limit overrun) are quarantined by
  content fingerprint and answered with an immediate structured
  ``PoisonInput`` error; pool-wide crash storms trip a circuit breaker
  that degrades cold analyses process→thread until a cooldown probe
  succeeds (see :mod:`repro.server.quarantine`).
* **Multi-core execution** — with ``executor="process"`` the request
  threads stay (admission, slicing, cancellation accounting are all
  parent-side) but every cold analysis is dispatched to a
  :class:`repro.parallel.ProcessPool` worker, which hands back flat
  artifact bytes (serialize-once into the disk store).  A deadline or
  disconnect kills the worker process and frees the slot exactly as a
  cooperative thread-mode cancellation would.
* **Flat-only serving** — every query method (``slice``,
  ``slice_batch``, ``stats``, ``explain``, ``why``, ``chop``) answers
  from the :class:`repro.server.cache.CacheEntry`'s
  :class:`~repro.artifact.ArtifactView` — mmap-backed on a warm-disk
  hit — and never reconstructs the object graph.
* **Artifact integrity** — stored artifacts are digest-verified at
  load (see :mod:`repro.artifact.format`); a background scrubber
  deep-verifies the whole store on a timer, quarantining corrupt
  files; and if a flat walk still blows up mid-query the request
  degrades to a transparent cold re-analysis (``degraded_recomputes``
  in health/stats) — a corrupt store costs latency, never a wrong
  answer.

Two serving loops: :func:`serve_stdio` (one client on stdin/stdout)
and :func:`serve_tcp` (a threading TCP server, many clients, one
request pipeline per connection).  Both cap request lines at
:data:`MAX_LINE_BYTES` and answer oversized lines with a structured
``Protocol`` error instead of buffering unbounded input.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, replace
from typing import Any, Callable, TextIO

from repro import AnalyzeOptions, __version__
from repro.artifact import ArtifactError
from repro.budget import Budget, BudgetExceeded
from repro.parallel import ProcessPool, WorkerCrashed, WorkerError
from repro.profiling import merge_timing_dicts
from repro.resources import ResourceExceeded
from repro.server.cache import AnalysisCache, CacheEntry, cache_key
from repro.server.faults import FaultPlan
from repro.server.fragments import FragmentStore
from repro.server.quarantine import CircuitBreaker, Quarantine
from repro.server.requestlog import RequestLog
from repro.server.replication import (
    DEFAULT_REPLICATION_FACTOR,
    Replicator,
    decode_payload,
    encode_payload,
    validate_artifact,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    chop_payload,
    decode_message,
    encode_message,
    error_response,
    explain_payload,
    ok_response,
    slice_batch_payload,
    slice_payload,
    stats_payload_from_counts,
    why_payload,
)
from repro.slicing.flatslice import flat_slicer

logger = logging.getLogger("repro.server")

#: Hard cap on one request line; beyond this the serving loops answer a
#: structured ``Protocol`` error without buffering the rest.
MAX_LINE_BYTES = 10 * 1024 * 1024

#: Default bound on requests waiting for a free worker.
DEFAULT_MAX_QUEUE = 32

#: How often the dispatcher wakes while waiting on a worker, to notice
#: passed deadlines and vanished clients.
_WAIT_SLICE_S = 0.05

#: Hard cap on seeds in one ``slice_batch`` request (admission sanity:
#: one request should not monopolize the daemon indefinitely).
MAX_BATCH_ITEMS = 256

#: What a flat walk raises when it reads bytes that passed load-time
#: verification but are wrong anyway (an encoder bug, or corruption
#: under ``verify="none"``).  The query methods catch exactly these and
#: degrade to a transparent cold re-analysis — anything else is a
#: genuine server bug and must surface as an Internal error.
_FLAT_CORRUPTION_ERRORS = (
    ArtifactError,
    IndexError,
    struct.error,
    UnicodeDecodeError,
    OverflowError,
)


#: Methods answered inline on the connection thread — never dispatched
#: to the worker pool, so they stay responsive under saturation.
#: (``stats`` here is the server-wide form; ``stats`` over a program is
#: a cache query.)
_INLINE_METHODS = frozenset(
    {
        "ping",
        "shutdown",
        "health",
        "stats",
        "put_artifact",
        "get_artifact",
        "sync_offer",
        "replicate_config",
        "repair",
    }
)


def default_executor(workers: int) -> str:
    """``process`` when there is parallelism to win, else ``thread``."""
    return "process" if workers > 1 else "thread"


#: A parsed cache query: ``answer(entry, name)`` renders the result
#: payload from one cache entry.
Answer = Callable[[CacheEntry, str], dict[str, Any]]


class QueryError(Exception):
    """A structured, client-visible failure (bad params, empty result)."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(message)
        self.error_type = error_type


@dataclass
class _Target:
    """The program a cache query names: its source, display name,
    analysis options (without a budget) and cache key, computed once
    per request."""

    source: str
    name: str
    options: AnalyzeOptions
    key: str


@dataclass
class MethodStats:
    count: int = 0
    errors: int = 0
    timeouts: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    def record(self, latency_ms: float, ok: bool, timed_out: bool) -> None:
        self.count += 1
        if not ok:
            self.errors += 1
        if timed_out:
            self.timeouts += 1
        self.total_ms += latency_ms
        self.max_ms = max(self.max_ms, latency_ms)

    def as_dict(self) -> dict[str, Any]:
        mean = self.total_ms / self.count if self.count else 0.0
        return {
            "count": self.count,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "total_ms": round(self.total_ms, 3),
            "mean_ms": round(mean, 3),
            "max_ms": round(self.max_ms, 3),
        }


class SliceServer:
    """Dispatches protocol requests against a shared analysis cache."""

    def __init__(
        self,
        cache: AnalysisCache | None = None,
        timeout: float | None = None,
        workers: int = 4,
        max_queue: int = DEFAULT_MAX_QUEUE,
        fault_plan: FaultPlan | None = None,
        executor: str = "thread",
        memory_limit_mb: float | None = None,
        quarantine: Quarantine | None = None,
        breaker: CircuitBreaker | None = None,
        scrub_interval_s: float | None = None,
        incremental: bool = True,
        request_log: RequestLog | None = None,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ValueError(f"unknown executor: {executor!r}")
        self.cache = cache if cache is not None else AnalysisCache()
        if incremental and self.cache.fragments is None:
            # Attach the incremental level (line-shift warm path).
            # ``incremental=False`` (or a pre-wired cache) leaves
            # serving strictly two-tier.
            fragments = FragmentStore(loader=self.cache._stored_payload)
            if self.cache.store is not None:
                # Crash anchors ride in the artifact store's directory:
                # a respawned shard pointed at the same root rebuilds
                # its warm lineages from these sidecars.
                fragments.checkpoint_dir = self.cache.store.root / "sessions"
            self.cache.fragments = fragments
        self.timeout = timeout
        self.workers = workers
        self.max_queue = max_queue
        self.fault_plan = fault_plan
        if fault_plan is not None and self.cache.fault_plan is None:
            self.cache.fault_plan = fault_plan
        self.executor = executor
        self.memory_limit_mb = memory_limit_mb
        #: Poison-input tracking + pool-health breaker (see
        #: :mod:`repro.server.quarantine`).  Both are live for either
        #: executor — only the process executor ever *feeds* them
        #: (thread-mode analyses cannot kill a worker in isolation), but
        #: health always reports their state.
        self.quarantine = quarantine if quarantine is not None else Quarantine()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.process_pool: ProcessPool | None = None
        if executor == "process":
            self.process_pool = ProcessPool(workers=workers)
            if self.cache.executor is None:
                self.cache.executor = self.process_pool
        self.started = time.time()
        self.shutting_down = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-query"
        )
        self._stats_lock = threading.Lock()
        self._method_stats: dict[str, MethodStats] = {}
        # Load accounting: queued = submitted but not yet started,
        # busy = currently executing on a worker thread.
        self._load_lock = threading.Lock()
        self._busy = 0
        self._queued = 0
        self.shed_total = 0
        self.cancelled_total = 0
        # Aggregated pipeline stage timings over every analysis this
        # process actually ran (cache hits contribute nothing).  The
        # merge is not internally synchronized and concurrent workers
        # (plus batch fan-out threads) interleave accumulation, so every
        # touch — write or read — goes through this dedicated lock.
        self._pipeline: dict[str, Any] = {}
        self._pipeline_lock = threading.Lock()
        # Serve-time corruption recoveries: a flat slice blew up on
        # verified-at-load bytes, the entry was invalidated, the file
        # quarantined, and the request transparently re-analyzed.
        self.degraded_recomputes = 0
        # Periodic store scrubber.  The first pass runs right away on
        # the scrub thread (the "scrub at open" the store wants) so a
        # daemon pointed at a rotted store quarantines it before the
        # first unlucky request finds out; serving is never blocked.
        self.scrub_interval_s = scrub_interval_s
        self._scrub_stop = threading.Event()
        self._scrub_thread: threading.Thread | None = None
        if scrub_interval_s is not None and self.cache.store is not None:
            self._scrub_thread = threading.Thread(
                target=self._scrub_loop, name="repro-scrub", daemon=True
            )
            self._scrub_thread.start()
        # Replication engine; attached post-start via the
        # ``replicate_config`` RPC because shard ports are ephemeral —
        # nobody knows the peer list until the whole tier is listening.
        self.replicator: Replicator | None = None
        self.request_log = (
            request_log if request_log is not None else RequestLog(None)
        )
        #: ``host:port`` once :func:`serve_tcp` has bound; stamped into
        #: every request log line so a shard's lines name the shard.
        self.endpoint: str | None = None
        # Cache queries: each parses its params into an ``Answer``.
        self._queries: dict[str, Callable[[dict[str, Any]], Answer]] = {
            "slice": self._query_slice,
            "explain": self._query_explain,
            "why": self._query_why,
            "chop": self._query_chop,
            "stats": self._query_stats,
        }
        self._methods: dict[
            str, Callable[[dict[str, Any], Budget | None], dict[str, Any]]
        ] = {
            "ping": self._method_ping,
            "health": self._method_health,
            "slice_batch": self._method_slice_batch,
            "stats": self._method_stats_rpc,
            "shutdown": self._method_shutdown,
            "put_artifact": self._method_put_artifact,
            "get_artifact": self._method_get_artifact,
            "sync_offer": self._method_sync_offer,
            "replicate_config": self._method_replicate_config,
            "repair": self._method_repair,
        }

    def prestart(self) -> None:
        """Pay worker-process spawn costs now instead of on first miss."""
        if self.process_pool is not None:
            self.process_pool.prestart(wait=False)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def handle_line(
        self, line: str, client_alive: Callable[[], bool] | None = None
    ) -> str:
        """One request line in, one response line out.  Never raises."""
        try:
            request = decode_request_line(line)
        except ProtocolError as exc:
            return encode_message(error_response(None, "Protocol", str(exc)))
        return encode_message(self.handle_request(request, client_alive))

    def handle_request(
        self,
        request: dict[str, Any],
        client_alive: Callable[[], bool] | None = None,
    ) -> dict[str, Any]:
        """Dispatch one request.

        ``client_alive`` (supplied by the TCP handler) is polled while
        the request waits on a worker; when it reports the client gone,
        the in-flight budget is cancelled so the worker frees itself.
        """
        request_id = request.get("id")
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(method, str) or (
            method not in self._methods and method not in self._queries
        ):
            return error_response(
                request_id, "UnknownMethod", f"unknown method: {method!r}"
            )
        if not isinstance(params, dict):
            return error_response(
                request_id, "Protocol", "params must be an object"
            )
        start = time.perf_counter()
        timed_out = False
        try:
            if method in self._queries and (
                method != "stats" or "source" in params or "program" in params
            ):
                result = self._query(method, params, client_alive)
            elif method in _INLINE_METHODS:
                # Introspection must stay responsive even when the
                # worker pool is saturated by slow analyses.
                # Replication traffic rides this path too: a saturated
                # pool must not be able to starve artifact convergence
                # (the RPCs touch only the store, never a worker), and
                # repair/config calls must answer during a drain when
                # every worker slot is busy finishing requests.
                result = self._methods[method](params, None)
            else:
                limit = self._effective_limit(params)
                handler = self._methods[method]
                result = self._run_on_worker(
                    lambda budget: handler(params, budget), limit, client_alive
                )
            response = ok_response(request_id, result)
        except QueryError as exc:
            timed_out = exc.error_type == "Timeout"
            response = error_response(request_id, exc.error_type, str(exc))
        except BudgetExceeded as exc:
            # The worker observed its own budget before the dispatcher
            # noticed; classify by the recorded reason.
            timed_out = exc.reason != "cancelled"
            error_type = "Timeout" if timed_out else "Cancelled"
            response = error_response(request_id, error_type, str(exc))
        except ResourceExceeded as exc:
            # The memory sentinel killed (or the rlimit backstop
            # unwound) the analysis; its own wire type keeps it apart
            # from budget timeouts — the input is too hungry, not slow.
            response = error_response(request_id, "ResourceExceeded", str(exc))
        except WorkerError as exc:
            # A process-executor failure, transported.  Task exceptions
            # carry the original type name so the client sees the same
            # structured error as an in-process analysis failure; a
            # worker death surfaces as its own "WorkerCrashed" type.
            response = error_response(request_id, exc.error_type, exc.message)
        except Exception as exc:
            response = error_response(request_id, type(exc).__name__, str(exc))
        latency_ms = (time.perf_counter() - start) * 1000
        self._record(method, latency_ms, response["ok"], timed_out)
        return response

    def _query(
        self,
        method: str,
        params: dict[str, Any],
        client_alive: Callable[[], bool] | None,
    ) -> dict[str, Any]:
        """One cache query.  A memory or disk hit is answered here, on
        the calling thread, with no admission and no worker hop; a miss
        (or a hit whose flat walk finds corruption) goes to a worker,
        which starts the lookup at the replica tier."""
        limit = self._effective_limit(params)
        answer = self._queries[method](params)
        source, name = self._resolve_source(params)
        target = self._target(
            source, name, bool(params.get("include_stdlib", True))
        )
        entry, origin = self.cache.get_entry(
            target.source, target.name, target.options,
            key=target.key, tiers="warm",
        )
        if entry is not None:
            if self.fault_plan is not None:
                self.fault_plan.on_worker(None)
            try:
                payload = answer(entry, target.name)
            except _FLAT_CORRUPTION_ERRORS as exc:
                self._degrade(target.key, exc)
            else:
                payload["origin"] = origin
                return payload
        return self._run_on_worker(
            lambda budget: self._serve(target, budget, answer),
            limit,
            client_alive,
            # A hit already fired the worker fault for this query.
            fault=entry is None,
        )

    # ------------------------------------------------------------------
    # Worker-pool dispatch: admission, deadlines, cancellation
    # ------------------------------------------------------------------

    def _run_on_worker(
        self,
        handler: Callable[[Budget], dict[str, Any]],
        limit: float | None,
        client_alive: Callable[[], bool] | None,
        fault: bool = True,
    ) -> dict[str, Any]:
        budget = Budget.from_timeout(limit)
        with self._load_lock:
            if self._busy >= self.workers and self._queued >= self.max_queue:
                self.shed_total += 1
                raise QueryError(
                    "Overloaded",
                    f"all {self.workers} workers busy and {self._queued} "
                    f"requests queued (max {self.max_queue}); retry with "
                    "backoff",
                )
            self._queued += 1
        future = self._pool.submit(self._run_worker, handler, budget, fault)
        deadline = None if limit is None else time.monotonic() + limit
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    dropped = self._abort(future, budget, "deadline")
                    if dropped:
                        # The deadline passed while the request was
                        # still *queued*: no worker ever touched it, so
                        # it is shed with its own error type — the
                        # router counts these as free admission sheds,
                        # not as burned analysis time.
                        raise QueryError(
                            "DeadlineExpired",
                            f"{limit:g}s deadline passed while queued; "
                            "no worker was consumed",
                        )
                    raise QueryError(
                        "Timeout", f"request exceeded {limit:g}s budget"
                    )
                wait = min(_WAIT_SLICE_S, remaining)
            else:
                wait = _WAIT_SLICE_S
            try:
                return future.result(timeout=wait)
            except FutureTimeout:
                if client_alive is not None and not client_alive():
                    self._abort(future, budget, "cancelled")
                    raise QueryError(
                        "Cancelled",
                        "client disconnected before the response was ready",
                    ) from None
            except BudgetExceeded:
                # The worker observed its own expired budget before the
                # dispatcher's next wake-up; it still counts as a
                # cancelled in-flight analysis.
                with self._load_lock:
                    self.cancelled_total += 1
                raise

    def _effective_limit(self, params: dict[str, Any]) -> float | None:
        """min(server timeout, per-request ``deadline`` param)."""
        deadline = params.pop("deadline", None)
        if deadline is not None:
            if (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool)
                or deadline <= 0
            ):
                raise QueryError(
                    "BadParams",
                    "'deadline' must be a positive number of seconds",
                )
            deadline = float(deadline)
        limits = [l for l in (self.timeout, deadline) if l is not None]
        return min(limits) if limits else None

    def _run_worker(
        self,
        handler: Callable[[Budget], dict[str, Any]],
        budget: Budget,
        fault: bool,
    ) -> dict[str, Any]:
        with self._load_lock:
            self._queued -= 1
            self._busy += 1
        try:
            remaining = budget.remaining()
            if not budget.cancelled and remaining is not None and remaining <= 0:
                # Queued past its own deadline: shed before any work
                # starts instead of burning the worker on an answer the
                # client has already given up on.  (A *cancellation*
                # that raced us here still reports as Cancelled via the
                # check below.)
                raise QueryError(
                    "DeadlineExpired",
                    "deadline passed while the request was queued",
                )
            budget.check()  # cancelled while still queued -> free at once
            if fault and self.fault_plan is not None:
                self.fault_plan.on_worker(budget)
            return handler(budget)
        finally:
            with self._load_lock:
                self._busy -= 1

    def _abort(self, future, budget: Budget, reason: str) -> bool:
        """Cancel an in-flight request: flag its budget (the worker's
        next poll raises) and, if it never started, drop it from the
        queue accounting ourselves (the worker wrapper will not run).
        Returns whether the request was dropped before a worker ever
        started it."""
        budget.cancel(reason)
        dropped = future.cancel()
        with self._load_lock:
            if dropped:
                self._queued -= 1
            self.cancelled_total += 1
        return dropped

    # ------------------------------------------------------------------
    # Methods
    # ------------------------------------------------------------------

    def _method_ping(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        return {
            "pong": True,
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
        }

    def _method_health(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """Pool load at a glance; never touches the worker pool itself."""
        with self._load_lock:
            busy, queued = self._busy, self._queued
            shed, cancelled = self.shed_total, self.cancelled_total
            degraded = self.degraded_recomputes
        payload = {
            "healthy": not self.shutting_down,
            "shutting_down": self.shutting_down,
            "workers": self.workers,
            "busy": busy,
            "queued": queued,
            "max_queue": self.max_queue,
            "shed_total": shed,
            "cancelled_total": cancelled,
            "degraded_recomputes": degraded,
            "log_dropped": self.request_log.dropped,
            "executor": self.executor,
            "uptime_s": round(time.time() - self.started, 3),
            "quarantine": self.quarantine.stats(),
            "breaker": self.breaker.stats(),
        }
        if self.memory_limit_mb is not None:
            payload["memory_limit_mb"] = self.memory_limit_mb
        if self.process_pool is not None:
            payload["pool"] = self.process_pool.stats()
        store = self.cache.store
        if store is not None:
            payload["store"] = {
                "root": str(store.root),
                "saves": store.stats.saves,
                "quarantined": store.stats.quarantined,
                "corrupt_found": store.stats.corrupt_found,
                "scrubs": store.stats.scrubs,
                "scrubbed": store.stats.scrubbed,
                "last_scrub": store.last_scrub,
            }
        if self.replicator is not None:
            payload["replication"] = self.replicator.stats()
        fragments = self.cache.fragments
        if fragments is not None:
            fragment_stats = fragments.stats()
            payload["incremental_hits"] = fragment_stats["incremental_hits"]
            payload["functions_reused"] = fragment_stats["functions_reused"]
            payload["functions_reanalyzed"] = fragment_stats[
                "functions_reanalyzed"
            ]
            payload["fragments"] = fragment_stats
        return payload

    def _method_shutdown(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        self.shutting_down = True
        return {"stopping": True}

    # ------------------------------------------------------------------
    # Replication RPCs (peer-to-peer; see repro.server.replication)
    # ------------------------------------------------------------------

    def _require_store(self):
        store = self.cache.store
        if store is None:
            raise QueryError("BadParams", "this daemon has no disk store")
        return store

    @staticmethod
    def _key_param(params: dict[str, Any]) -> str:
        key = params.get("key")
        if not isinstance(key, str) or not key:
            raise QueryError("BadParams", "'key' must be a non-empty string")
        return key

    def _method_put_artifact(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """Receive one replicated artifact from a peer shard.

        The bytes are digest-validated against the key before landing,
        and saved with ``replicate=False`` so a received copy terminates
        here instead of fanning back out around the ring."""
        store = self._require_store()
        key = self._key_param(params)
        try:
            payload = decode_payload(params.get("payload"))
            validate_artifact(key, payload)
        except (ValueError, ArtifactError) as exc:
            raise QueryError(
                "BadParams", f"rejected artifact for {key[:12]}: {exc}"
            ) from exc
        store.save_bytes(key, payload, replicate=False)
        return {"stored": True, "bytes": len(payload)}

    def _method_get_artifact(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """Serve one stored artifact to a peer (replica read-through)."""
        store = self._require_store()
        key = self._key_param(params)
        payload = store.load_payload(key)
        if payload is None:
            raise QueryError("NotFound", f"no stored artifact for {key[:12]}")
        return {"key": key, "payload": encode_payload(payload)}

    def _method_sync_offer(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """Anti-entropy handshake: given keys a peer holds, report which
        of them this shard is missing (the peer pushes exactly those)."""
        keys = params.get("keys")
        if not isinstance(keys, list) or not all(
            isinstance(k, str) for k in keys
        ):
            raise QueryError("BadParams", "'keys' must be a list of strings")
        store = self.cache.store
        if store is None:
            return {"missing": []}
        have = set(store.keys())
        return {"missing": [k for k in keys if k not in have]}

    def _method_replicate_config(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """Install (or replace) this shard's replication engine.

        Pushed by the shard pool after spawn — and re-pushed after every
        respawn — because shard ports are ephemeral: nobody knows the
        peer list until the whole tier is listening."""
        store = self._require_store()
        self_address = params.get("self_address")
        peers = params.get("peers")
        factor = params.get("factor", DEFAULT_REPLICATION_FACTOR)
        if not isinstance(self_address, str) or not self_address:
            raise QueryError("BadParams", "'self_address' must be this shard's address")
        if not isinstance(peers, list) or not all(
            isinstance(p, str) and p for p in peers
        ):
            raise QueryError("BadParams", "'peers' must be a list of addresses")
        if not isinstance(factor, int) or isinstance(factor, bool) or factor < 1:
            raise QueryError("BadParams", "'factor' must be a positive integer")
        old = self.replicator
        replicator = Replicator(store, self_address, list(peers), factor=factor)
        self.replicator = replicator
        store.on_save = replicator.artifact_saved
        self.cache.replica_fetch = replicator.fetch
        if old is not None:
            old.close()
        return {
            "configured": True,
            "self_address": self_address,
            "peers": len(replicator.ring) - 1,
            "factor": replicator.factor,
        }

    def _method_repair(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """One anti-entropy pass.  ``wait=true`` runs inline and returns
        the summary (drills); default kicks a background pass (the shard
        pool's probe-loop cadence must never block on peer RPCs)."""
        if self.replicator is None:
            raise QueryError("BadParams", "replication is not configured")
        if params.get("wait"):
            return self.replicator.repair()
        self.replicator.repair_async()
        return {"scheduled": True}

    def _query_slice(self, params: dict[str, Any]) -> Answer:
        item = {
            "line": self._int_param(params, "line"),
            "context": self._opt_int_param(params, "context", 0),
            "flavor": self._flavor_param(params),
        }
        return lambda entry, name: self._slice_result(entry, name, item)

    def _serve(
        self,
        target: _Target,
        budget: Budget | None,
        answer: Answer,
        resolved: tuple[CacheEntry, str] | None = None,
    ) -> dict[str, Any]:
        """``answer(entry, name)`` over the target's cache entry, with
        ``origin`` stamped in, degrading gracefully on corruption.

        If the flat walk blows up mid-query (bytes that passed load
        verification but are wrong anyway), the poisoned entry is
        dropped from the memory tier, its backing file quarantined, and
        the request re-analyzed cold — the client gets the same
        byte-identical answer it would have gotten from a healthy
        store, one analysis slower.  ``resolved`` passes in an
        ``(entry, origin)`` the caller already looked up
        (``slice_batch`` shares one per distinct program); without it
        the lookup starts at the replica tier, because the caller has
        just missed in memory and on disk.
        """
        entry, origin = resolved or self._lookup(target, budget, "cold")
        try:
            payload = answer(entry, target.name)
        except _FLAT_CORRUPTION_ERRORS as exc:
            self._degrade(target.key, exc)
            entry, origin = self._lookup(target, budget, "cold")
            payload = answer(entry, target.name)
        payload["origin"] = origin
        return payload

    def _degrade(self, key: str, cause: Exception) -> None:
        """Drop a cache entry whose flat walk failed, quarantine its
        file and count the recompute the caller is about to run."""
        logger.warning(
            "query failed over flat artifact %s (%s: %s); degrading to "
            "cold re-analysis", key[:12], type(cause).__name__, cause,
        )
        self.cache.invalidate(key)
        store = self.cache.store
        if store is not None:
            store.stats.corrupt_found += 1
            store._quarantine(
                store.path_for(key),
                f"served bytes failed mid-query: {type(cause).__name__}: {cause}",
            )
        with self._load_lock:
            self.degraded_recomputes += 1

    @staticmethod
    def _slice_result(
        entry: CacheEntry, name: str, item: dict[str, Any]
    ) -> dict[str, Any]:
        """One seed's slice payload — the single construction path for
        both ``slice`` and every ``slice_batch`` element, so their
        output stays byte-identical."""
        result = flat_slicer(entry.view, item["flavor"]).slice_from_line(
            item["line"]
        )
        return slice_payload(
            result,
            program=name,
            line=item["line"],
            flavor=item["flavor"],
            context=item["context"],
        )

    def _method_slice_batch(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        """Many seeds in one request: analyze once per distinct
        fingerprint (concurrently — in process mode those analyses land
        on different worker processes), then fan the per-seed slice
        queries out over the shared SDGs and answer in request order.

        Validation is all-or-nothing: any malformed item fails the whole
        request before any analysis starts.
        """
        items = self._batch_items(params)
        groups: dict[tuple[str, bool], dict[str, Any]] = {}
        order: list[tuple[str, bool]] = []
        for item in items:
            gkey = (item["source"], item["include_stdlib"])
            if gkey not in groups:
                groups[gkey] = item
                order.append(gkey)

        targets = {
            gkey: self._target(
                first["source"], first["name"], first["include_stdlib"]
            )
            for gkey, first in groups.items()
        }

        def analyze_group(gkey: tuple[str, bool]) -> tuple[CacheEntry, str]:
            return self._lookup(targets[gkey], budget, "all")

        if len(order) > 1:
            with ThreadPoolExecutor(
                max_workers=min(len(order), max(2, self.workers)),
                thread_name_prefix="repro-batch",
            ) as fan:
                futures = {gkey: fan.submit(analyze_group, gkey) for gkey in order}
                resolved = {gkey: fut.result() for gkey, fut in futures.items()}
        else:
            resolved = {order[0]: analyze_group(order[0])}

        def slice_item(item: dict[str, Any]) -> dict[str, Any]:
            gkey = (item["source"], item["include_stdlib"])
            return self._serve(
                replace(targets[gkey], name=item["name"]),
                budget,
                lambda entry, name: self._slice_result(entry, name, item),
                resolved=resolved[gkey],
            )

        if len(items) > 1:
            with ThreadPoolExecutor(
                max_workers=min(len(items), max(2, self.workers)),
                thread_name_prefix="repro-batch",
            ) as fan:
                results = list(fan.map(slice_item, items))
        else:
            results = [slice_item(items[0])]
        return slice_batch_payload(results, distinct_programs=len(order))

    def _batch_items(self, params: dict[str, Any]) -> list[dict[str, Any]]:
        """Normalize/validate a ``slice_batch`` request into item dicts.

        Two shapes: ``lines: [..]`` against one top-level source or
        program, or ``items: [{...}, ...]`` where each item may carry
        its own source/program and the top level provides defaults.
        """
        raw_items = params.get("items")
        if raw_items is None:
            lines = params.get("lines")
            if not isinstance(lines, list):
                raise QueryError(
                    "BadParams", "need 'lines' (list) or 'items' (list)"
                )
            raw_items = [{"line": line} for line in lines]
        if not isinstance(raw_items, list) or not raw_items:
            raise QueryError("BadParams", "'items' must be a non-empty list")
        if len(raw_items) > MAX_BATCH_ITEMS:
            raise QueryError(
                "BadParams",
                f"batch of {len(raw_items)} seeds exceeds the "
                f"{MAX_BATCH_ITEMS}-item cap; split the request",
            )
        items: list[dict[str, Any]] = []
        for index, raw in enumerate(raw_items):
            if not isinstance(raw, dict):
                raise QueryError(
                    "BadParams", f"items[{index}] must be an object"
                )
            merged = {**params, **raw}
            merged.pop("items", None)
            merged.pop("lines", None)
            source, name = self._resolve_source(merged)
            items.append(
                {
                    "source": source,
                    "name": name,
                    "include_stdlib": bool(merged.get("include_stdlib", True)),
                    "line": self._int_param(merged, "line"),
                    "context": self._opt_int_param(merged, "context", 0),
                    "flavor": self._flavor_param(merged),
                }
            )
        return items

    def _query_explain(self, params: dict[str, Any]) -> Answer:
        line = self._int_param(params, "line")
        return lambda entry, name: explain_payload(
            entry.view, program=name, line=line
        )

    def _query_why(self, params: dict[str, Any]) -> Answer:
        source_line = self._int_param(params, "source_line")
        sink_line = self._int_param(params, "sink_line")
        return lambda entry, name: why_payload(
            entry.view,
            program=name,
            source_line=source_line,
            sink_line=sink_line,
        )

    def _query_chop(self, params: dict[str, Any]) -> Answer:
        flavor = self._flavor_param(params)
        source_line = self._int_param(params, "source_line")
        sink_line = self._int_param(params, "sink_line")
        return lambda entry, name: chop_payload(
            entry.view,
            program=name,
            source_line=source_line,
            sink_line=sink_line,
            flavor=flavor,
        )

    def _query_stats(self, params: dict[str, Any]) -> Answer:
        return lambda entry, name: stats_payload_from_counts(
            entry.view.counts, program=name, timings=entry.timings
        )

    def _method_stats_rpc(
        self, params: dict[str, Any], budget: Budget | None
    ) -> dict[str, Any]:
        return self.server_stats()

    def server_stats(self) -> dict[str, Any]:
        with self._stats_lock:
            methods = {
                name: stats.as_dict()
                for name, stats in sorted(self._method_stats.items())
            }
            requests_total = sum(s.count for s in self._method_stats.values())
        with self._pipeline_lock:
            pipeline = {
                key: dict(value) if isinstance(value, dict) else value
                for key, value in self._pipeline.items()
            }
        with self._load_lock:
            service = {
                "workers": self.workers,
                "busy": self._busy,
                "queued": self._queued,
                "max_queue": self.max_queue,
                "shed_total": self.shed_total,
                "cancelled_total": self.cancelled_total,
                "degraded_recomputes": self.degraded_recomputes,
                "log_dropped": self.request_log.dropped,
                "timeout_s": self.timeout,
                "executor": self.executor,
            }
        service["quarantine"] = self.quarantine.stats()
        service["breaker"] = self.breaker.stats()
        if self.memory_limit_mb is not None:
            service["memory_limit_mb"] = self.memory_limit_mb
        if self.process_pool is not None:
            service["pool"] = self.process_pool.stats()
        return {
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.time() - self.started, 3),
            "requests_total": requests_total,
            "methods": methods,
            "cache": self.cache.stats(),
            "pipeline": pipeline,
            "service": service,
        }

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _resolve_source(params: dict[str, Any]) -> tuple[str, str]:
        """Resolve request params to ``(source_text, display_name)``."""
        source = params.get("source")
        name = params.get("filename", "<input>")
        if source is None:
            program = params.get("program")
            if not isinstance(program, str):
                raise QueryError(
                    "BadParams", "need 'source' text or a 'program' name"
                )
            from repro.suite.loader import (
                load_source,
                program_names,
                shipped_programs,
            )

            if program not in shipped_programs():
                raise QueryError(
                    "UnknownProgram",
                    f"{program!r} is not a suite program "
                    f"(known: {', '.join(program_names())})",
                )
            source = load_source(program)
            name = f"{program}.mj"
        if not isinstance(source, str):
            raise QueryError("BadParams", "'source' must be a string")
        return source, name

    def _target(self, source: str, name: str, include_stdlib: bool) -> _Target:
        """Key a query's program, behind the poison gate: a fingerprint
        that has repeatedly killed workers is answered immediately — no
        lookup, no worker dispatch, no respawn — breaking the
        crash/respawn loop at the front door."""
        options = AnalyzeOptions(
            include_stdlib=include_stdlib, memory_limit_mb=self.memory_limit_mb
        )
        key = cache_key(source, options)
        poisoned = self.quarantine.check(key)
        if poisoned is not None:
            raise QueryError("PoisonInput", poisoned)
        return _Target(source, name, options, key)

    def _lookup(
        self, target: _Target, budget: Budget | None, tiers: str
    ) -> tuple[CacheEntry, str]:
        """The target's cache entry and origin, from the given ``tiers``
        of :meth:`AnalysisCache.get_entry`, feeding the quarantine and
        the circuit breaker with what a cold analysis did."""
        use_process = (
            self.process_pool is not None and self.breaker.allow_process()
        )
        try:
            entry, origin = self.cache.get_entry(
                target.source,
                target.name,
                replace(target.options, budget=budget),
                executor_ok=use_process,
                key=target.key,
                tiers=tiers,
            )
        except WorkerCrashed as exc:
            # Both guards observe the crash: the quarantine attributes
            # it to this input, the breaker to pool health overall.
            self.quarantine.record_failure(
                target.key, "WorkerCrashed", exc.message
            )
            self.breaker.record_crash()
            raise
        except ResourceExceeded as exc:
            # A resource kill poisons the input but does not trip the
            # breaker: the pool is healthy, the input is hungry.
            self.quarantine.record_failure(
                target.key, "ResourceExceeded", str(exc)
            )
            raise
        if use_process and origin == "analyzed":
            self.breaker.record_success()
        if origin in ("analyzed", "incremental") and entry.timings:
            with self._pipeline_lock:
                merge_timing_dicts(self._pipeline, entry.timings)
        return entry, origin

    @staticmethod
    def _flavor_param(params: dict[str, Any]) -> str:
        flavor = params.get("flavor", "thin")
        if flavor not in ("thin", "traditional"):
            raise QueryError("BadParams", f"unknown flavor: {flavor!r}")
        return flavor

    @staticmethod
    def _int_param(params: dict[str, Any], key: str) -> int:
        value = params.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            raise QueryError("BadParams", f"{key!r} must be an integer")
        return value

    @staticmethod
    def _opt_int_param(params: dict[str, Any], key: str, default: int) -> int:
        value = params.get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise QueryError("BadParams", f"{key!r} must be an integer")
        return value

    def _record(
        self, method: str, latency_ms: float, ok: bool, timed_out: bool
    ) -> None:
        with self._stats_lock:
            stats = self._method_stats.setdefault(method, MethodStats())
            stats.record(latency_ms, ok, timed_out)
        self.request_log.append(
            {
                "event": "request",
                "method": method,
                "ok": ok,
                "timed_out": timed_out,
                "latency_ms": round(latency_ms, 3),
                "endpoint": self.endpoint,
            }
        )

    def _scrub_loop(self) -> None:
        """Background scrubber: one pass at startup, then every
        ``scrub_interval_s``.  Scrub failures are logged, never fatal —
        a broken scrubber must not take serving down with it."""
        store = self.cache.store
        while not self._scrub_stop.is_set():
            try:
                summary = store.scrub()
                if summary["corrupt"] or summary["stale"]:
                    logger.warning("scrub: %s", json.dumps(summary))
            except Exception as exc:  # noqa: BLE001 - keep scrubbing
                logger.warning("scrub pass failed: %s", exc)
            if self._scrub_stop.wait(self.scrub_interval_s):
                break

    def close(self) -> None:
        self._scrub_stop.set()
        if self.replicator is not None:
            self.replicator.close()
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self.process_pool is not None:
            self.process_pool.close()
        self.request_log.close()


# ----------------------------------------------------------------------
# Serving loops
# ----------------------------------------------------------------------


def _oversize_message() -> str:
    return f"request line exceeds {MAX_LINE_BYTES} bytes"


def _oversize_response() -> str:
    return encode_message(error_response(None, "Protocol", _oversize_message()))


def decode_request_line(line: str) -> dict[str, Any]:
    """Decode one request line; :class:`ProtocolError` if it is longer
    than :data:`MAX_LINE_BYTES` or not a valid request."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(_oversize_message())
    return decode_message(line)


def _read_line(readline: Callable[[int], Any]) -> Any:
    """One line through ``readline(limit)`` (text or bytes), capped at
    :data:`MAX_LINE_BYTES`: the line, empty at EOF, or None for an
    oversized line.  An oversized line is not buffered: its rest is
    discarded through the next newline, so framing recovers and the
    stream stays usable."""
    line = readline(MAX_LINE_BYTES + 1)
    newline = b"\n" if isinstance(line, bytes) else "\n"
    if len(line) <= MAX_LINE_BYTES or line.endswith(newline):
        return line
    while True:
        rest = readline(MAX_LINE_BYTES)
        if not rest or rest.endswith(newline):
            return None


def serve_stdio(
    server: SliceServer, in_stream: TextIO, out_stream: TextIO
) -> None:
    """Answer newline-delimited requests until EOF or shutdown."""
    while True:
        line = _read_line(in_stream.readline)
        if line is None:
            out_stream.write(_oversize_response() + "\n")
            out_stream.flush()
            continue
        if not line:
            break
        if not line.strip():
            continue
        out_stream.write(server.handle_line(line) + "\n")
        out_stream.flush()
        if server.shutting_down:
            break
    server.close()


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        handler = self.server.handler  # type: ignore[attr-defined]
        plan = handler.fault_plan
        try:
            while True:
                raw = _read_line(self.rfile.readline)
                if raw is None:
                    self.wfile.write(
                        (_oversize_response() + "\n").encode("utf-8")
                    )
                    self.wfile.flush()
                    continue
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace")
                if not line.strip():
                    continue
                response = handler.handle_line(
                    line, client_alive=self._client_alive
                )
                if plan is not None and plan.drop_connection():
                    # Injected fault: the connection dies before the
                    # response is written.
                    self.connection.close()
                    return
                self.wfile.write((response + "\n").encode("utf-8"))
                self.wfile.flush()
                if handler.shutting_down:
                    # shutdown() must not run on this handler thread.
                    threading.Thread(
                        target=self.server.shutdown, daemon=True
                    ).start()
                    break
        except OSError:
            # Client vanished mid-write; per-request cancellation has
            # already been signalled via client_alive.
            pass

    def _client_alive(self) -> bool:
        """Peek the socket without consuming data: a closed peer reads
        as EOF, a healthy (possibly pipelining) peer as data or EAGAIN."""
        try:
            return (
                self.connection.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
                != b""
            )
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            return False


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler: Any) -> None:
        super().__init__(address, _LineHandler)
        self.handler = handler


def start_tcp_server(
    server: Any, host: str = "127.0.0.1", port: int = 0
) -> tuple[_TCPServer, threading.Thread]:
    """Bind and serve on a background thread; returns (tcp_server, thread).

    This is the package's one TCP line loop: one thread per connection.
    ``server`` is a :class:`SliceServer` or a
    :class:`~repro.server.router.Router` — anything with
    ``handle_line(line, client_alive)``, ``fault_plan`` and
    ``shutting_down``.  ``port=0`` binds an ephemeral port — read it
    back from ``tcp_server.server_address``.
    """
    tcp_server = _TCPServer((host, port), server)
    thread = threading.Thread(
        target=tcp_server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return tcp_server, thread


def serve_tcp(server: SliceServer, host: str = "127.0.0.1", port: int = 7341) -> None:
    """Serve until a ``shutdown`` request (or KeyboardInterrupt)."""
    tcp_server, thread = start_tcp_server(server, host, port)
    bound_host, bound_port = tcp_server.server_address[:2]
    server.endpoint = f"{bound_host}:{bound_port}"
    listening = json.dumps(
        {"event": "listening", "host": bound_host, "port": bound_port},
        sort_keys=True,
    )
    logger.info("%s", listening)
    # The port report a spawning ShardPool reads: a shard's stderr is
    # its log, shared with the whole tier.
    print(listening, flush=True)
    try:
        thread.join()
    except KeyboardInterrupt:
        tcp_server.shutdown()
    finally:
        tcp_server.server_close()
        server.close()
