"""The sharded serving tier's frontend: a threaded router.

One endpoint, N daemons.  The router speaks the existing JSON-lines
protocol *unchanged* — clients (including ``SliceClient`` and every
``--server`` CLI path) cannot tell a router from a single daemon — and
routes each analysis request by consistent-hashing its
``source_fingerprint`` across the shard set, so every artifact is hot
in exactly one shard's LRU instead of every process re-warming
everything.

Architecture:

* **Serving** — the router is served by the daemon's own TCP loop
  (:func:`repro.server.daemon.start_tcp_server`): one thread per
  connection, the same line cap and oversize recovery.  Each request
  is forwarded once, on its connection's thread, to one shard at a
  time; there is no second hop.
* **Admission** — at most ``max_inflight`` forwards reach the shards
  at once and up to ``max_queue`` more wait for a slot; beyond that
  the router sheds load with the same structured ``Overloaded`` error
  the daemon uses, so client backoff machinery works identically end
  to end.  ``ping``/``health``/``shutdown``, aggregate ``stats`` and
  ``rolling_restart`` bypass admission: the tier stays observable
  however wedged the shards are.
* **Routing** — the routing key is the request's
  :func:`repro.frontend.source_fingerprint` (the same digest the
  shards' cache keys are built from).  Requests whose key cannot be
  derived (missing/invalid params) are forwarded to the first healthy
  shard so the *daemon's* validation answers authoritatively — the
  router never re-implements parameter checking.
* **Failover** — one loop walks the ring's
  :meth:`~repro.server.ring.HashRing.preference` order healthy-first,
  calling the shard on the request's own thread: a shard failure
  (``Overloaded`` / ``Disconnected``, the same retryable set the client
  uses) advances to the next candidate and feeds the shard's health
  accounting, so a dead shard is demoted by live traffic before the
  next probe tick.  Each attempt carries the time left of the client's
  ``deadline``.  Structured shard errors (``BadParams``, ``Timeout``,
  ``MJError``...) are relayed verbatim, stamped with the shard's
  address in the error payload (``error.endpoint``) for debuggability.
  The ring has :data:`~repro.server.ring.DEFAULT_REPLICAS` virtual
  nodes per shard, as every shard's replicator's does, so both agree
  on any one key's order.
* **Batch fan-out** — ``slice_batch`` items are grouped by owning
  shard, the sub-batches forwarded concurrently, and the merged result
  preserves request order; single-owner batches forward untouched so
  their bytes stay identical to single-daemon mode.
* **Aggregation** — ``health`` reports the topology (per-shard state
  and cached probe payloads, ring ownership shares, router counters)
  without performing any I/O; ``stats`` fans out live to every shard.
* **Draining** — ``shutdown`` answers immediately, then the router
  stops accepting work and drains the pool (spawned shards are shut
  down; attached shards are left running).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro import __version__
from repro.frontend import source_fingerprint
from repro.server.client import RETRYABLE, ServerError
from repro.server.daemon import MethodStats, decode_request_line, start_tcp_server
from repro.server.faults import FaultPlan
from repro.server.requestlog import RequestLog
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    error_response,
    ok_response,
    slice_batch_payload,
)
from repro.server.ring import HashRing
from repro.server.shardpool import DRAINING, HEALTHY, ShardPool

logger = logging.getLogger("repro.router")

#: Methods the router understands (the daemon's surface, unchanged).
ROUTER_METHODS = frozenset(
    {
        "ping",
        "health",
        "slice",
        "slice_batch",
        "explain",
        "why",
        "chop",
        "stats",
        "shutdown",
        "rolling_restart",
    }
)

#: Default cap on concurrently forwarded requests.
DEFAULT_MAX_INFLIGHT = 16

#: Admitted-but-waiting requests beyond busy slots before shedding.
DEFAULT_MAX_QUEUE = 64


class Router:
    """Routes protocol requests across a :class:`ShardPool` via a ring."""

    def __init__(
        self,
        pool: ShardPool,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_queue: int = DEFAULT_MAX_QUEUE,
        fault_plan: FaultPlan | None = None,
        request_log: RequestLog | None = None,
    ) -> None:
        self.pool = pool
        self.ring = HashRing(pool.addresses())
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.fault_plan = fault_plan
        self.request_log = (
            request_log if request_log is not None else RequestLog(None)
        )
        self.started = time.time()
        self.shutting_down = False
        self.address: tuple[str, int] | None = None
        # Admission: ``_inflight`` counts admitted forwards (shed past
        # ``max_inflight + max_queue``); ``_slots`` lets at most
        # ``max_inflight`` of them reach the shards at once.
        self._inflight = 0
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._stats_lock = threading.Lock()
        self._method_stats: dict[str, MethodStats] = {}
        self.forwarded_total = 0
        self.failover_total = 0
        self.shed_total = 0
        self.deadline_expired_total = 0
        # The TCP server and its accept thread (populated by start()).
        self._tcp: Any = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Request core (runs on connection threads; also the test seam)
    # ------------------------------------------------------------------

    def handle_line(
        self, line: str, client_alive: Callable[[], bool] | None = None
    ) -> str:
        """One request line in, one response line out.  Never raises.

        ``client_alive`` is the serving loop's hook and is ignored: a
        forward is not cancelled when its client goes away.
        """
        try:
            request = decode_request_line(line)
        except ProtocolError as exc:
            return encode_message(error_response(None, "Protocol", str(exc)))
        return encode_message(self.handle_request(request))

    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        request_id = request.get("id")
        method = request.get("method")
        params = request.get("params") or {}
        if not isinstance(method, str) or method not in ROUTER_METHODS:
            return error_response(
                request_id, "UnknownMethod", f"unknown method: {method!r}"
            )
        if not isinstance(params, dict):
            return error_response(
                request_id, "Protocol", "params must be an object"
            )
        start = time.perf_counter()
        try:
            if method == "ping":
                response = ok_response(request_id, self._ping_payload())
            elif method == "health":
                response = ok_response(request_id, self.health_payload())
            elif method == "shutdown":
                response = ok_response(request_id, self._begin_shutdown())
            elif method == "stats" and not (
                "source" in params or "program" in params
            ):
                response = ok_response(request_id, self.stats_payload())
            elif method == "rolling_restart":
                response = ok_response(
                    request_id, self._rolling_restart(params)
                )
            else:
                response = self._admitted(method, params, request_id)
        except Exception as exc:  # isolation: the router never dies on a query
            response = error_response(request_id, type(exc).__name__, str(exc))
        self._record(
            method, (time.perf_counter() - start) * 1000, response["ok"]
        )
        return response

    def _admitted(
        self, method: str, params: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        """Forward under admission control.  Past ``max_inflight +
        max_queue`` admitted forwards the request is shed with the
        daemon's ``Overloaded`` error; admitted requests wait for one
        of ``max_inflight`` forwarding slots."""
        with self._stats_lock:
            if self._inflight >= self.max_inflight + self.max_queue:
                self.shed_total += 1
                return error_response(
                    request_id,
                    "Overloaded",
                    f"router at capacity ({self.max_inflight} in flight, "
                    f"{self.max_queue} queued); retry with backoff",
                )
            self._inflight += 1
        try:
            with self._slots:
                if method == "slice_batch":
                    return self._route_batch(params, request_id)
                return self._forward(
                    method, params, self._routing_key(params), request_id
                )
        finally:
            with self._stats_lock:
                self._inflight -= 1

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    @staticmethod
    def _source_text(params: dict[str, Any]) -> str | None:
        """The request's source text (``source``, or the named suite
        ``program``), or ``None`` when the params name none — an unknown
        program included, which the shard answers as ``UnknownProgram``."""
        source = params.get("source")
        if source is None:
            from repro.suite.loader import load_source, shipped_programs

            program = params.get("program")
            if not isinstance(program, str) or program not in shipped_programs():
                return None
            source = load_source(program)
        return source if isinstance(source, str) else None

    def _routing_key(self, params: dict[str, Any]) -> str | None:
        """The request's ``source_fingerprint`` — or ``None`` when it
        cannot be derived, in which case the request is forwarded to
        the first healthy shard for authoritative validation."""
        source = self._source_text(params)
        if source is None:
            return None
        return source_fingerprint(source, bool(params.get("include_stdlib", True)))

    def _candidates(self, key: str | None) -> list[str]:
        """Forwarding order: ring preference for the key, healthy shards
        first; unhealthy shards stay as a last resort (they may have
        recovered since the last probe), draining shards never."""
        states = self.pool.states()
        order = (
            self.ring.preference(key)
            if key is not None
            else sorted(states)
        )
        healthy = [a for a in order if states.get(a) == HEALTHY]
        fallback = [
            a
            for a in order
            if states.get(a) not in (HEALTHY, DRAINING) and a in states
        ]
        return healthy + fallback

    def _forward(
        self,
        method: str,
        params: dict[str, Any],
        key: str | None,
        request_id: Any,
    ) -> dict[str, Any]:
        """Send the request to one candidate at a time, on this thread,
        until a shard answers."""
        candidates = self._candidates(key)
        if not candidates:
            return error_response(
                request_id,
                "Overloaded",
                "no shard available (all draining or none attached); "
                "retry with backoff",
            )
        # Deadline propagation: the shard should see the time *left*,
        # not the client's original allowance — elapsed routing/failover
        # time comes out of the budget.  Non-positive or malformed
        # deadlines pass through untouched so the daemon's own param
        # validation answers authoritatively.
        original_deadline = params.get("deadline")
        if not isinstance(original_deadline, (int, float)) or isinstance(
            original_deadline, bool
        ) or original_deadline <= 0:
            original_deadline = None
        forward_started = time.monotonic()
        last: ServerError | None = None
        for attempt, address in enumerate(candidates):
            if self.fault_plan is not None:
                self.fault_plan.on_route(self.pool, address)
            attempt_params = params
            if original_deadline is not None:
                remaining = original_deadline - (
                    time.monotonic() - forward_started
                )
                if remaining <= 0:
                    with self._stats_lock:
                        self.deadline_expired_total += 1
                    return error_response(
                        request_id,
                        "DeadlineExpired",
                        f"{original_deadline:g}s deadline exhausted at the "
                        "router before a shard could answer",
                    )
                attempt_params = {**params, "deadline": remaining}
            shard = self.pool.shard(address)
            try:
                result = shard.call(method, attempt_params)
            except ServerError as exc:
                if exc.error_type not in RETRYABLE:
                    # A structured answer proves the shard is alive;
                    # relay it stamped with the shard's address.
                    self.pool.note_success(address)
                    response = error_response(
                        request_id, exc.error_type, exc.message
                    )
                    response["error"]["endpoint"] = exc.endpoint or address
                    return response
                refused = isinstance(
                    exc.__cause__, ConnectionRefusedError
                ) or shard.process_exited()
                self.pool.note_failure(
                    address, str(exc), definitely_down=refused
                )
                with shard._lock:
                    shard.failed_total += 1
                with self._stats_lock:
                    self.failover_total += 1
                last = exc
                continue
            self.pool.note_success(address)
            with shard._lock:
                shard.forwarded_total += 1
            with self._stats_lock:
                self.forwarded_total += 1
            if attempt:
                logger.info(
                    "%s",
                    json.dumps(
                        {
                            "event": "failover",
                            "method": method,
                            "served_by": address,
                            "attempts": attempt + 1,
                        },
                        sort_keys=True,
                    ),
                )
            return ok_response(request_id, result)
        assert last is not None
        response = error_response(
            request_id,
            last.error_type,
            f"all {len(candidates)} shards failed; last: {last.message}",
        )
        if last.endpoint:
            response["error"]["endpoint"] = last.endpoint
        return response

    def _rolling_restart(self, params: dict[str, Any]) -> dict[str, Any]:
        """Restart every spawned shard, one at a time, zero downtime.

        Each shard drains through :meth:`ShardPool.restart_shard` while
        the rest of the tier keeps serving (replicas answer the
        draining shard's keys warm).  Stops at the first failure — a
        roll that keeps going after losing a shard would shrink
        capacity with every step.
        """
        drain_timeout = params.get("drain_timeout_s", 30.0)
        if (
            not isinstance(drain_timeout, (int, float))
            or isinstance(drain_timeout, bool)
            or drain_timeout <= 0
        ):
            raise ValueError("'drain_timeout_s' must be a positive number")
        started = time.monotonic()
        restarted: list[dict[str, Any]] = []
        failed: list[dict[str, Any]] = []
        for address in self.pool.addresses():
            shard = self.pool.shard(address)
            if shard.process is None:
                failed.append(
                    {"address": address, "error": "externally managed"}
                )
                continue
            try:
                info = self.pool.restart_shard(
                    address, drain_timeout_s=float(drain_timeout)
                )
            except Exception as exc:  # noqa: BLE001 - report, don't die
                failed.append({"address": address, "error": str(exc)})
                break
            restarted.append(info)
        return {
            "restarted": restarted,
            "failed": failed,
            "duration_s": round(time.monotonic() - started, 3),
        }

    def _route_batch(
        self, params: dict[str, Any], request_id: Any
    ) -> dict[str, Any]:
        """Fan ``slice_batch`` items out to their owning shards and
        merge the results in request order.

        Malformed shapes are not judged here: the whole request is
        forwarded to one shard whose validation answers exactly as a
        single daemon would (all-or-nothing, before any analysis).
        """
        raw_items = params.get("items")
        if raw_items is None:
            # lines-shape: one source, one owner, forward untouched.
            return self._forward(
                "slice_batch", params, self._routing_key(params), request_id
            )
        if not isinstance(raw_items, list) or not raw_items:
            return self._forward("slice_batch", params, None, request_id)
        groups: dict[str, list[tuple[int, Any]]] = {}
        group_key: dict[str, str] = {}
        for index, raw in enumerate(raw_items):
            if not isinstance(raw, dict):
                return self._forward("slice_batch", params, None, request_id)
            merged = {**params, **raw}
            merged.pop("items", None)
            merged.pop("lines", None)
            key = self._routing_key(merged)
            if key is None:
                return self._forward("slice_batch", params, None, request_id)
            candidates = self._candidates(key)
            owner = candidates[0] if candidates else ""
            groups.setdefault(owner, []).append((index, raw))
            group_key.setdefault(owner, key)
        if len(groups) == 1:
            # Single owner: forward the original request untouched so
            # the response bytes match single-daemon mode exactly.
            (owner,) = groups
            return self._forward(
                "slice_batch", params, group_key[owner], request_id
            )

        defaults = {
            k: v for k, v in params.items() if k not in ("items", "lines")
        }

        def run(owner: str) -> dict[str, Any]:
            sub_params = dict(defaults)
            sub_params["items"] = [raw for _, raw in groups[owner]]
            return self._forward(
                "slice_batch", sub_params, group_key[owner], request_id
            )

        owners = sorted(groups)
        with ThreadPoolExecutor(
            max_workers=len(owners), thread_name_prefix="repro-route-batch"
        ) as fan:
            responses = dict(zip(owners, fan.map(run, owners)))
        ordered: list[Any] = [None] * len(raw_items)
        distinct = 0
        for owner in owners:
            response = responses[owner]
            if not response["ok"]:
                # One failing sub-batch fails the whole request, exactly
                # like the daemon's all-or-nothing validation (other
                # shards may have warmed their caches — a side effect,
                # not an observable result).
                return response
            result = response["result"]
            distinct += result["distinct_programs"]
            for (index, _), payload in zip(groups[owner], result["results"]):
                ordered[index] = payload
        return ok_response(
            request_id,
            slice_batch_payload(ordered, distinct_programs=distinct),
        )

    # ------------------------------------------------------------------
    # Aggregated views
    # ------------------------------------------------------------------

    def _ping_payload(self) -> dict[str, Any]:
        return {
            "pong": True,
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "role": "router",
        }

    def _router_counters(self) -> dict[str, Any]:
        with self._stats_lock:
            return {
                "forwarded_total": self.forwarded_total,
                "failover_total": self.failover_total,
                "shed_total": self.shed_total,
                "deadline_expired_total": self.deadline_expired_total,
                "log_dropped": self.request_log.dropped,
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
            }

    def health_payload(self) -> dict[str, Any]:
        """Topology health from cached probe state — no I/O, so this
        answers promptly however sick the shards are."""
        shards = self.pool.snapshot()
        healthy = [a for a, s in shards.items() if s["state"] == HEALTHY]
        return {
            "healthy": bool(healthy) and not self.shutting_down,
            "shutting_down": self.shutting_down,
            "role": "router",
            "shard_count": len(shards),
            "healthy_shards": len(healthy),
            "respawns_total": self.pool.respawns_total,
            "probe_interval_s": self.pool.probe_interval_s,
            "failure_threshold": self.pool.failure_threshold,
            "uptime_s": round(time.time() - self.started, 3),
            "router": self._router_counters(),
            "shards": shards,
            "ring": {
                "replicas": self.ring.replicas,
                "ownership": {
                    address: round(share, 4)
                    for address, share in sorted(self.ring.ownership().items())
                },
            },
        }

    def stats_payload(self) -> dict[str, Any]:
        """Topology stats: the router's own counters plus a live
        ``stats`` fan-out to every shard."""
        shard_stats: dict[str, Any] = {}
        requests_total = 0
        incremental = {
            "incremental_hits": 0,
            "functions_reused": 0,
            "functions_reanalyzed": 0,
        }
        for address in self.pool.addresses():
            try:
                payload = self.pool.shard(address).call("stats", {})
            except ServerError as exc:
                shard_stats[address] = {
                    "error": {"type": exc.error_type, "message": exc.message}
                }
                continue
            shard_stats[address] = payload
            requests_total += payload.get("requests_total", 0)
            fragments = (payload.get("cache") or {}).get("fragments") or {}
            for counter in incremental:
                incremental[counter] += fragments.get(counter, 0)
        with self._stats_lock:
            methods = {
                name: stats.as_dict()
                for name, stats in sorted(self._method_stats.items())
            }
            routed_total = sum(s.count for s in self._method_stats.values())
        return {
            "version": __version__,
            "protocol": PROTOCOL_VERSION,
            "role": "router",
            "uptime_s": round(time.time() - self.started, 3),
            "requests_total": routed_total,
            "shard_requests_total": requests_total,
            "methods": methods,
            "router": self._router_counters(),
            "incremental": incremental,
            "shards": shard_stats,
            "ring": {
                "replicas": self.ring.replicas,
                "ownership": {
                    address: round(share, 4)
                    for address, share in sorted(self.ring.ownership().items())
                },
            },
        }

    def _record(self, method: str, latency_ms: float, ok: bool) -> None:
        with self._stats_lock:
            stats = self._method_stats.setdefault(method, MethodStats())
            stats.record(latency_ms, ok, False)
        self.request_log.append(
            {
                "event": "route",
                "method": method,
                "ok": ok,
                "latency_ms": round(latency_ms, 3),
            }
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _begin_shutdown(self) -> dict[str, Any]:
        """Answer immediately; drain in the background."""
        already = self.shutting_down
        self.shutting_down = True
        if not already:
            threading.Thread(
                target=self.stop, name="repro-router-drain", daemon=True
            ).start()
        return {"stopping": True}

    def stop(self) -> None:
        """Stop accepting connections and drain the shard pool."""
        self.shutting_down = True
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        self.pool.stop()
        self.request_log.close()

    def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Serve on the daemon's threaded TCP loop; returns the bound
        ``(host, port)`` (``port=0`` binds an ephemeral port)."""
        if self._thread is not None:
            raise RuntimeError("router already started")
        self._tcp, self._thread = start_tcp_server(self, host, port)
        bound_host, bound_port = self._tcp.server_address[:2]
        self.address = (bound_host, bound_port)
        logger.info(
            "%s",
            json.dumps(
                {
                    "event": "listening",
                    "role": "router",
                    "host": bound_host,
                    "port": bound_port,
                },
                sort_keys=True,
            ),
        )
        return self.address

    def join(self) -> None:
        """Block until the serving thread exits (CLI foreground mode)."""
        if self._thread is not None:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)


def start_router(
    pool: ShardPool,
    host: str = "127.0.0.1",
    port: int = 0,
    **router_kwargs: Any,
) -> Router:
    """Build a :class:`Router` over ``pool``, start probing, and serve."""
    router = Router(pool, **router_kwargs)
    pool.probe_all()  # a deterministic first round before traffic lands
    pool.start_probing()
    router.start(host, port)
    return router
