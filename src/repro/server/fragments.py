"""Fragment store: the serving tier's incremental level.

The :class:`~repro.server.cache.AnalysisCache` key is the whole-source
content address — any edit misses it.  The :class:`FragmentStore` sits
between that miss and the cold fallback: it keeps a small LRU of
:class:`~repro.incremental.IncrementalSession` anchors keyed by
``(structure fingerprint, options token)``, so an edit that only moves
lines of a program the server recently analyzed is served by
relocating the held artifact, byte-identical to cold.

A slot's session is built (or re-pointed) by :meth:`note_cold` the
moment a cold result lands: it holds the payload bytes and the unit
decomposition :meth:`shape` computed for the request — no analysis.
A declined edit's cold result therefore becomes the anchor for the
next line shift, and a successful relocation advances the anchor in
place.

Thread-safety: the store lock guards the LRU and counters; each slot
carries its own lock so edits against one lineage serialize while
different lineages proceed in parallel.

**Checkpointing**: sessions live in process memory, so a shard crash
or rolling restart would reset every warm lineage to cold.  When
``checkpoint_dir`` is set, the store writes a small JSON sidecar per
slot — structure fingerprint, options token and the latest artifact
key + source — atomically (a private temp file, then a rename) whenever
a lineage advances.  The sidecar points at an artifact that is already
durable in the disk store (and replicated).  A respawned shard that
misses a slot consults the sidecar and rebuilds the session from that
artifact's bytes, fetched through ``loader`` — the first post-restart
line shift is served warm instead of cold.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable

from repro import AnalyzeOptions
from repro.frontend import normalize_source
from repro.incremental import (
    DeclinedError,
    IncrementalOutcome,
    IncrementalSession,
    ProgramShape,
    split_units,
)

logger = logging.getLogger("repro.server")

#: Lineages (relocation anchors) kept per store, LRU by structure.
SESSION_CAPACITY = 4

#: Sidecar format version; bumped when the schema changes so a new
#: binary quietly ignores old checkpoints instead of mis-reading them.
CHECKPOINT_VERSION = 1

#: ``loader(key)`` returns the stored artifact bytes for ``key``, or
#: None when they are no longer retrievable.
PayloadLoader = Callable[[str], "bytes | None"]


class _Slot:
    """One program lineage: its relocation anchor, if any, and the
    content key of the anchor's artifact."""

    __slots__ = ("lock", "session", "key")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.session: IncrementalSession | None = None
        self.key: str | None = None


class FragmentStore:
    """LRU of relocation anchors plus the counters they feed."""

    def __init__(
        self,
        loader: PayloadLoader | None = None,
        checkpoint_dir: Path | str | None = None,
    ) -> None:
        self.loader = loader
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._slots: OrderedDict[tuple[str, str], _Slot] = OrderedDict()
        self._lock = threading.Lock()
        self.incremental_hits = 0
        self.incremental_misses = 0
        self.functions_reused = 0
        self.functions_reanalyzed = 0
        self.sessions_seeded = 0
        self.sessions_dropped = 0
        self.sessions_restored = 0
        self.checkpoints_written = 0
        self.checkpoint_errors = 0
        self.declines: dict[str, int] = {}
        self.tiers: dict[str, int] = {}

    # ------------------------------------------------------------------

    def _decline(self, reason: str) -> None:
        with self._lock:
            self.incremental_misses += 1
            self.declines[reason] = self.declines.get(reason, 0) + 1

    def _get_slot(self, slot_key: tuple[str, str]) -> _Slot:
        with self._lock:
            slot = self._slots.get(slot_key)
            if slot is None:
                slot = _Slot()
                self._slots[slot_key] = slot
                while len(self._slots) > SESSION_CAPACITY:
                    _, evicted = self._slots.popitem(last=False)
                    if evicted.session is not None:
                        self.sessions_dropped += 1
            else:
                self._slots.move_to_end(slot_key)
            return slot

    # ------------------------------------------------------------------

    def shape(self, source: str) -> ProgramShape | None:
        """The unit decomposition of ``source`` — computed once per
        request and handed to :meth:`try_incremental` and
        :meth:`note_cold` — or None when it does not split (counted as
        a decline; such a source has no lineage)."""
        try:
            return split_units(normalize_source(source))
        except DeclinedError as exc:
            self._decline(exc.reason)
            return None

    def try_incremental(
        self,
        key: str,
        source: str,
        filename: str,
        options: AnalyzeOptions,
        shape: ProgramShape,
    ) -> IncrementalOutcome | None:
        """Attempt to serve the edited ``source`` by relocation.

        Returns the outcome (payload byte-identical to a cold analysis)
        or None — in which case the caller falls back to cold and
        reports the result back via :meth:`note_cold`.
        :class:`~repro.budget.BudgetExceeded` propagates (the request
        was cancelled, not declined).
        """
        slot_key = (shape.structure_fingerprint, options.cache_token())
        slot = self._get_slot(slot_key)
        with slot.lock:
            if slot.session is None:
                # Fresh process (crash or rolling restart): the lineage
                # may have a checkpoint sidecar pointing at a durable
                # artifact — rebuild the anchor from it.
                self._restore(slot, slot_key, options)
            session = slot.session
            if session is None:
                self._decline("no-session")
                return None
            try:
                outcome = session.relocate(
                    source, shape, filename, budget=options.budget
                )
            except DeclinedError as exc:
                self._decline(exc.reason)
                return None
            slot.key = key
        with self._lock:
            self.incremental_hits += 1
            self.functions_reused += outcome.functions_reused
            self.functions_reanalyzed += outcome.functions_reanalyzed
            self.tiers[outcome.tier] = self.tiers.get(outcome.tier, 0) + 1
        # The edited source's artifact is about to land in the durable
        # store under ``key`` — advance the lineage's crash anchor.
        self._checkpoint(slot_key, key, source, filename)
        return outcome

    def note_cold(
        self,
        key: str,
        source: str,
        filename: str,
        options: AnalyzeOptions,
        payload: bytes,
        shape: ProgramShape,
    ) -> None:
        """Anchor the lineage of ``source`` (split as ``shape``) at its
        fresh cold result."""
        try:
            session = IncrementalSession(payload, shape, options)
        except DeclinedError:
            return
        slot_key = (shape.structure_fingerprint, options.cache_token())
        slot = self._get_slot(slot_key)
        with slot.lock:
            slot.session = session
            slot.key = key
        with self._lock:
            self.sessions_seeded += 1
        self._checkpoint(slot_key, key, source, filename)

    def forget(self, key: str) -> None:
        """Drop every anchor built on the artifact filed under ``key``.

        The daemon calls this (through the cache) when that artifact
        failed mid-query: relocating from suspect bytes would serve
        them again instead of the recompute the degrade path wants.
        """
        with self._lock:
            slots = list(self._slots.values())
        for slot in slots:
            with slot.lock:
                if slot.key == key:
                    slot.session = None
                    slot.key = None
                    with self._lock:
                        self.sessions_dropped += 1

    # ------------------------------------------------------------------
    # Checkpoint sidecars
    # ------------------------------------------------------------------

    def _checkpoint_path(self, slot_key: tuple[str, str]) -> Path | None:
        if self.checkpoint_dir is None:
            return None
        digest = hashlib.sha256(
            f"{slot_key[0]}\x00{slot_key[1]}".encode("utf-8")
        ).hexdigest()
        return self.checkpoint_dir / f"{digest[:40]}.json"

    def _checkpoint(
        self, slot_key: tuple[str, str], key: str, source: str, filename: str
    ) -> None:
        """Atomically persist the lineage's crash anchor.

        Each write goes through its own temp file in the sidecar's
        directory, so concurrent writers for one lineage never rename
        each other's half-written bytes into place.  Best-effort: a
        full disk or unwritable directory degrades the store to its
        pre-checkpoint behavior (warm state dies with the process) — it
        never fails the request that triggered it.
        """
        path = self._checkpoint_path(slot_key)
        if path is None:
            return
        record = {
            "version": CHECKPOINT_VERSION,
            "structure_fingerprint": slot_key[0],
            "options_token": slot_key[1],
            "key": key,
            "filename": filename,
            "source": source,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, sort_keys=True)
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        except OSError as exc:
            with self._lock:
                self.checkpoint_errors += 1
            logger.warning("session checkpoint failed: %s", exc)
            return
        with self._lock:
            self.checkpoints_written += 1
        self._trim_checkpoints()

    def _trim_checkpoints(self) -> None:
        """Keep the sidecar population bounded at a small multiple of
        the session capacity, oldest-written first — mirrors the LRU.
        Best-effort: a sidecar another writer removed mid-trim is
        simply skipped."""
        assert self.checkpoint_dir is not None
        try:
            sidecars = sorted(
                self.checkpoint_dir.glob("*.json"),
                key=lambda p: p.stat().st_mtime,
                reverse=True,
            )
        except OSError:
            return
        for stale in sidecars[4 * SESSION_CAPACITY:]:
            try:
                stale.unlink()
            except OSError:
                pass

    def _restore(
        self, slot: _Slot, slot_key: tuple[str, str], options: AnalyzeOptions
    ) -> None:
        """Rebuild an empty slot's session from its sidecar.

        Called with the slot lock held.  Every validation failure is
        silent — a missing/stale/corrupt sidecar, or an artifact gone
        from the store, simply means the lineage starts cold, exactly
        as if checkpointing were off.
        """
        path = self._checkpoint_path(slot_key)
        if path is None or self.loader is None:
            return
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(record, dict):
            return
        if record.get("version") != CHECKPOINT_VERSION:
            return
        if (
            record.get("structure_fingerprint") != slot_key[0]
            or record.get("options_token") != slot_key[1]
        ):
            return
        key = record.get("key")
        source = record.get("source")
        if not (isinstance(key, str) and isinstance(source, str)):
            return
        payload = self.loader(key)
        if payload is None:
            return
        try:
            shape = split_units(normalize_source(source))
            slot.session = IncrementalSession(payload, shape, options)
        except DeclinedError:
            return
        slot.key = key
        with self._lock:
            self.sessions_restored += 1
            self.sessions_seeded += 1

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "incremental_hits": self.incremental_hits,
                "incremental_misses": self.incremental_misses,
                "functions_reused": self.functions_reused,
                "functions_reanalyzed": self.functions_reanalyzed,
                "sessions": sum(
                    1 for s in self._slots.values() if s.session is not None
                ),
                "sessions_seeded": self.sessions_seeded,
                "sessions_dropped": self.sessions_dropped,
                "sessions_restored": self.sessions_restored,
                "checkpoints_written": self.checkpoints_written,
                "checkpoint_errors": self.checkpoint_errors,
                "capacity": SESSION_CAPACITY,
                "declines": dict(sorted(self.declines.items())),
                "tiers": dict(sorted(self.tiers.items())),
            }
