"""Two-tier analysis cache: in-memory LRU over the on-disk store.

The key is content-addressed — :func:`cache_key` hashes the exact
source text (plus the stdlib when it participates), the
:class:`repro.AnalyzeOptions` token, and the package version.  Two
submissions of byte-identical source with the same options therefore
hit, regardless of filename; changing any option (or any byte of the
source) misses.

Lookup order: memory → disk → replica → incremental →
:func:`repro.parallel.analyze_artifact`.  The replica level (an optional
``replica_fetch`` hook, installed by
:class:`repro.server.replication.Replicator`) asks the other ring
holders of the key for a copy before recomputing; fetched bytes are
validated, persisted locally, and served with origin
``"replica"``.
Every analysis result is promoted into both tiers, so a restarted
process finds the artifact on disk and a long-lived process answers
from memory.  The incremental level (an optional
:class:`~repro.server.fragments.FragmentStore`) catches the
cheapest *near*-miss: a source that only moves lines of a program the
server recently analyzed (comments, blank lines) is served by
rewriting that artifact's line tables, with no analysis and
byte-identical artifact bytes (see :mod:`repro.incremental`).

The unit cached is a :class:`CacheEntry`: a flat
:class:`~repro.artifact.ArtifactView` and nothing else.  Every method
the daemon serves (slice, stats, explain, why, chop) runs straight off
the view — mmap-backed on a disk hit — so the object graph is never
reconstructed to answer a query.

Every cold miss runs :func:`repro.parallel.analyze_artifact`: in a
worker process when an ``executor`` (a
:class:`repro.parallel.ProcessPool`) is attached, in-process
otherwise.  Either way the cache receives *flat artifact bytes*: those
bytes go to the disk tier unchanged via :meth:`DiskStore.save_bytes`
and the in-memory LRU holds a view over the same buffer — serialize
once, deserialize never, and both executors store the same bytes.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any

from repro import AnalyzeOptions
from repro.artifact import ArtifactView, content_key
from repro.parallel import ProcessPool, WorkerError, analyze_artifact
from repro.resources import ResourceExceeded
from repro.server.faults import FaultPlan
from repro.server.fragments import FragmentStore
from repro.server.store import DiskStore

logger = logging.getLogger("repro.server")

DEFAULT_MEMORY_CAPACITY = 8


def cache_key(source: str, options: AnalyzeOptions) -> str:
    """Content address of one ``(source, options)`` analysis request.

    Delegates to :func:`repro.artifact.content_key` — the same address
    a worker stamps into the artifacts it encodes, so a stored file can
    be validated against the key it is filed under.
    """
    return content_key(source, options)


@dataclass
class CacheEntry:
    """One cached analysis: a flat ``view`` plus ``timings``, the run's
    stage profile when this entry was produced by a live analysis (None
    for warm hits — wall times are per-run data)."""

    view: ArtifactView
    timings: dict | None = None


class AnalysisCache:
    """LRU of :class:`CacheEntry` objects with an optional disk tier.

    Thread-safe: the TCP daemon serves connections from multiple
    threads.  The lock guards the LRU bookkeeping and the counters; the
    analysis itself runs outside the lock (two racing misses on the
    same key both compute, last write wins — wasteful but correct).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_MEMORY_CAPACITY,
        store: DiskStore | None = None,
        fault_plan: "FaultPlan | None" = None,
        executor: ProcessPool | None = None,
        fragments: FragmentStore | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.store = store
        self.fault_plan = fault_plan
        self.executor = executor
        self.fragments = fragments
        if fragments is not None and fragments.loader is None:
            fragments.loader = self._stored_payload
        #: Replica tier hook: ``replica_fetch(key) -> bytes | None``.
        #: Installed by the daemon when replication is configured.
        self.replica_fetch = None
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.incremental_hits = 0
        self.replica_hits = 0

    def get_entry(
        self,
        source: str,
        filename: str = "<input>",
        options: AnalyzeOptions | None = None,
        executor_ok: bool = True,
        *,
        key: str | None = None,
        tiers: str = "all",
    ) -> tuple[CacheEntry | None, str]:
        """Return ``(entry, origin)``, origin ∈ memory | disk |
        replica | incremental | analyzed.

        ``executor_ok=False`` forces a cold miss to run in-process even
        when a process executor is attached — the daemon's circuit
        breaker uses it to degrade process→thread after repeated worker
        crashes (see :class:`repro.server.quarantine.CircuitBreaker`).

        ``tiers`` splits the lookup for the daemon, which answers hits
        on the connection thread and sends only misses to a worker:
        ``"warm"`` probes memory and disk and returns ``(None, "miss")``
        when neither holds the key; ``"cold"`` starts at the replica
        tier, for a caller that has just probed the warm tiers.
        ``key`` is ``cache_key(source, options)`` when the caller has
        already computed it.
        """
        options = options or AnalyzeOptions()
        if key is None:
            key = cache_key(source, options)
        if tiers != "cold":
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.memory_hits += 1
                    return cached, "memory"
            if self.store is not None:
                view = self.store.load_view(key)
                if view is not None:
                    entry = CacheEntry(view=view)
                    with self._lock:
                        self.disk_hits += 1
                        self._put(key, entry)
                    return entry, "disk"
            if tiers == "warm":
                return None, "miss"
        if self.replica_fetch is not None:
            # Replica level: another ring holder may have this artifact
            # warm.  A hit costs one peer round trip instead of a cold
            # analysis, and the fetched (already-validated) bytes are
            # persisted locally so the *next* miss is a plain disk hit.
            # A fetch failure of any kind is strictly a miss: replica
            # trouble may cost a recompute, never fail the request.
            try:
                payload = self.replica_fetch(key)
            except Exception as exc:  # noqa: BLE001
                logger.warning("replica fetch failed for %s: %s", key, exc)
                payload = None
            if payload is not None:
                entry = CacheEntry(view=ArtifactView.from_buffer(payload))
                with self._lock:
                    self.replica_hits += 1
                    self._put(key, entry)
                if self.store is not None:
                    self.store.save_bytes(key, payload, replicate=False)
                return entry, "replica"
        shape = None
        if self.fragments is not None:
            # Incremental level: if this source only moves lines of a
            # lineage we hold an anchor for, relocate that artifact.
            # The payload is byte-identical to cold, so it is promoted
            # into both tiers exactly like a cold result.
            shape = self.fragments.shape(source)
        if shape is not None:
            outcome = self.fragments.try_incremental(
                key, source, filename, options, shape
            )
            if outcome is not None:
                entry = CacheEntry(
                    view=ArtifactView.from_buffer(outcome.payload),
                    timings=outcome.timings,
                )
                with self._lock:
                    self.incremental_hits += 1
                    self._put(key, entry)
                if self.store is not None:
                    self.store.save_bytes(key, outcome.payload)
                return entry, "incremental"
        if self.fault_plan is not None:
            # Injected slow analysis / analysis-time faults.  Raising
            # here (BudgetExceeded on cancellation) leaves no cache
            # entry behind, same as a failing real analysis.
            self.fault_plan.on_analysis(options.budget)
        if self.executor is not None and executor_ok:
            payload, timings = self._analyze_in_executor(
                source, filename, options
            )
        else:
            payload, timings = analyze_artifact(source, filename, options)
        entry = CacheEntry(ArtifactView.from_buffer(payload), timings)
        with self._lock:
            self.misses += 1
            self._put(key, entry)
        if self.store is not None:
            self.store.save_bytes(key, payload)
        if shape is not None:
            # A completed cold analysis anchors this lineage's next
            # line-shift edit.
            self.fragments.note_cold(
                key, source, filename, options, payload, shape
            )
        return entry, "analyzed"

    def _analyze_in_executor(
        self, source: str, filename: str, options: AnalyzeOptions
    ) -> tuple[bytes, dict | None]:
        """Run one cold analysis on a worker process.

        Returns the worker's ``(payload, timings)``: flat artifact
        bytes plus the run's stage profile (shipped out-of-band — it is
        observability data, not artifact content).
        """
        inject_crash = False
        inject_delay = 0.0
        inject_alloc = 0.0
        if self.fault_plan is not None:
            inject_crash = self.fault_plan.take_process_crash()
            inject_delay = self.fault_plan.worker_process_delay_s
            inject_alloc = self.fault_plan.worker_alloc_mb
        budget = options.budget
        memory_limit = options.memory_limit_mb
        if budget is not None:
            # Budget tokens cannot cross the process boundary (the
            # parent enforces them by killing the worker); strip before
            # pickling the options for the task message.
            options = replace(options, budget=None)
        try:
            return self.executor.run(
                analyze_artifact,
                source,
                filename,
                options,
                memory_limit_mb=memory_limit or 0.0,
                inject_delay_s=inject_delay,
                inject_crash=inject_crash,
                inject_alloc_mb=inject_alloc,
                budget=budget,
                rss_limit_mb=memory_limit,
            )
        except WorkerError as exc:
            if exc.error_type == "ResourceExceeded":
                # The in-worker rlimit backstop fired; re-raise as the
                # same structured error the parent-side RSS sentinel
                # produces, so callers see one taxonomy.
                raise ResourceExceeded("memory", exc.message) from None
            raise

    def _stored_payload(self, key: str) -> bytes | None:
        """The artifact bytes filed under ``key`` (memory, then disk),
        or None — how the fragment store rebuilds a checkpointed
        relocation anchor without re-analyzing."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None:
            return bytes(entry.view._buffer)
        if self.store is not None:
            return self.store.load_payload(key)
        return None

    def invalidate(self, key: str) -> bool:
        """Drop one entry from the memory tier (serve-time degrade).

        The daemon calls this when a slice blows up *inside* a flat
        walk — bytes that passed load-time verification but turned out
        poisoned anyway.  Any relocation anchor built on the same
        artifact goes too, so the retry recomputes.  The entry's view
        is deliberately *not* closed: another worker thread may be
        mid-slice over the same mapping, and releasing the buffer under
        it would turn one bad request into a crash.  The mmap is
        reclaimed when the last reference drops.  Returns whether an
        entry was removed.
        """
        if self.fragments is not None:
            self.fragments.forget(key)
        with self._lock:
            return self._entries.pop(key, None) is not None

    def _put(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            payload: dict[str, Any] = {
                "memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits,
                "incremental_hits": self.incremental_hits,
                "replica_hits": self.replica_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }
        payload["disk"] = (
            self.store.stats.as_dict() if self.store is not None else None
        )
        payload["fragments"] = (
            self.fragments.stats() if self.fragments is not None else None
        )
        return payload
