"""On-disk content-addressed store of flat analysis artifacts.

Each artifact lives at ``<root>/<key[:2]>/<key>.art`` where ``key`` is
the cache key from :func:`repro.server.cache.cache_key`.  The file
*is* the flat artifact (:mod:`repro.artifact`) — raw bytes straight
from a worker, no envelope — and :meth:`load_view` serves it as a
read-only ``mmap``-backed :class:`~repro.artifact.ArtifactView`: a
warm-disk hit costs one map plus a header parse, and every process
mapping the same file (all shards behind the router share one store
root) shares one page-cache copy of it.  Nothing the store reads is
ever unpickled.

Bad files are never propagated and never fatal, but *stale* and
*corrupt* are handled differently.  Stale files (another artifact
format, written by another package version, filed under the wrong
key) are legitimate encodings nobody wants anymore: they are discarded
and recomputed.  Corrupt files (digest mismatch, truncated section
table, garbage bytes, persistently unreadable) are evidence of a disk
or deployment problem: they are moved to ``<root>/corrupt/`` for
post-mortem instead of being silently unlinked, counted in
``stats.quarantined``, and the entry is recomputed.

Writes go through a temp file + ``fsync`` + :func:`os.replace` so a
crash mid-save leaves either the old artifact or none, but never a
torn file at the final path — and the bytes named by the rename are
actually on the platter when the rename lands.

:meth:`scrub` deep-verifies every stored artifact (digests plus
structural bounds), quarantining what fails; the daemon runs it at
startup and on a periodic timer.

Eviction semantics worth knowing: :meth:`prune` unlinks backing files
while ``mmap``-backed views of them may still be held by the in-memory
LRU.  That is safe on POSIX — the mapping keeps the inode alive, so an
LRU-held :class:`~repro.artifact.ArtifactView` keeps serving correct
bytes after its directory entry is gone; the disk space is reclaimed
when the last mapping closes.  The same applies to quarantine moves:
a live view follows the old inode, not the path.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.artifact import ArtifactError, ArtifactStaleError, ArtifactView
from repro.server.faults import FaultPlan

logger = logging.getLogger("repro.server")


def _open_valid(path: Path, key: str, verify: str) -> ArtifactView:
    """Open ``path`` at ``verify`` and check its version/key stamp.

    Raises :class:`ArtifactStaleError` for intact-but-unwanted bytes
    (another format, package version or key) and any other
    :class:`ArtifactError` for corrupt ones; never leaks the mapping.
    """
    view = ArtifactView.open(path, verify=verify)
    try:
        view.validate(key)
    except ArtifactError:
        view.close()
        raise
    return view


@dataclass
class StoreStats:
    """Counters for the disk tier (all monotonically increasing)."""

    hits: int = 0
    misses: int = 0
    discarded: int = 0
    saves: int = 0
    save_errors: int = 0
    evicted: int = 0
    tmp_swept: int = 0
    #: Corruption detected (serve-time load or scrub), whatever became
    #: of the file afterwards.
    corrupt_found: int = 0
    #: Corrupt files moved to ``corrupt/`` for post-mortem.
    quarantined: int = 0
    #: Scrub passes completed, and artifacts that passed deep verify.
    scrubs: int = 0
    scrubbed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "discarded": self.discarded,
            "saves": self.saves,
            "save_errors": self.save_errors,
            "evicted": self.evicted,
            "tmp_swept": self.tmp_swept,
            "corrupt_found": self.corrupt_found,
            "quarantined": self.quarantined,
            "scrubs": self.scrubs,
            "scrubbed": self.scrubbed,
        }


@dataclass
class DiskStore:
    """Content-addressed flat-artifact store under one root directory.

    ``max_bytes`` gives the store a size budget: after every save the
    store prunes oldest-mtime artifacts until it fits (see
    :meth:`prune`).  ``fault_plan`` is the test-only failure hook — see
    :mod:`repro.server.faults`.
    """

    root: Path
    stats: StoreStats = field(default_factory=StoreStats)
    max_bytes: int | None = None
    fault_plan: FaultPlan | None = None
    #: Temp files older than this are orphans (a writer that died
    #: between open and ``os.replace``) and get swept; young ones may
    #: belong to a concurrent in-flight save and are left alone.
    tmp_max_age_s: float = 60.0
    #: Verification level every load pays (see
    #: :data:`repro.artifact.VERIFY_LEVELS`).  ``header`` — one crc32
    #: pass over the mapping — is the serving default; ``deep`` is the
    #: scrubber's level; ``none`` trusts the bytes (benchmark baseline).
    verify: str = "header"
    #: Consecutive :meth:`load_view` read failures (EIO and friends)
    #: before an unreadable ``.art`` file is quarantined like a corrupt
    #: one instead of counting a miss on every request forever.
    read_failure_limit: int = 3
    #: Quarantine keeps at most this many files; oldest beyond the cap
    #: are deleted so a corruption storm cannot fill the disk twice.
    quarantine_max_files: int = 64
    #: Replication hook: called as ``on_save(key, payload)`` after a
    #: successful :meth:`save_bytes` unless the save was flagged
    #: ``replicate=False`` (a replica-received copy — re-fanning those
    #: out would loop writes around the ring forever).  Installed by
    #: :class:`repro.server.replication.Replicator`; must never raise
    #: into the save path (the hook is wrapped defensively anyway).
    on_save: Any = None

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._read_failures: dict[str, int] = {}
        self.last_scrub: dict[str, Any] | None = None
        self.sweep_tmp()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.art"

    @property
    def corrupt_dir(self) -> Path:
        return self.root / "corrupt"

    def load_view(self, key: str, verify: str | None = None) -> ArtifactView | None:
        """Map the stored artifact read-only, or None (missing / stale /
        corrupt).  This is the warm path: nothing is unpickled.

        ``verify`` overrides the store's configured level for this one
        load (the store benchmark measures the levels against each
        other); corrupt bytes are quarantined, stale ones discarded.
        """
        path = self.path_for(key)
        if self.fault_plan is not None:
            self.fault_plan.on_store_load(path)
        try:
            view = _open_valid(
                path, key, self.verify if verify is None else verify
            )
        except FileNotFoundError:
            self._read_failures.pop(str(path), None)
            self.stats.misses += 1
            return None
        except ArtifactStaleError as exc:
            self._read_failures.pop(str(path), None)
            self._discard(path, exc)
            return None
        except ArtifactError as exc:
            self.stats.corrupt_found += 1
            self._quarantine(path, str(exc))
            return None
        except OSError as exc:
            failures = self._read_failures.get(str(path), 0) + 1
            if failures >= self.read_failure_limit:
                self._read_failures.pop(str(path), None)
                self.stats.corrupt_found += 1
                self._quarantine(
                    path, f"unreadable after {failures} attempts: {exc}"
                )
            else:
                self._read_failures[str(path)] = failures
                self.stats.misses += 1
                logger.warning("store read failed for %s: %s", path, exc)
            return None
        self._read_failures.pop(str(path), None)
        self.stats.hits += 1
        return view

    def _discard(self, path: Path, exc: ArtifactError) -> None:
        """Unlink a stale (intact but unwanted) artifact."""
        self.stats.discarded += 1
        logger.warning("discarding stale artifact %s: %s", path, exc)
        path.unlink(missing_ok=True)

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt file to ``corrupt/`` for post-mortem.

        The move is a same-filesystem :func:`os.replace`, so any
        LRU-held mmap of the old path keeps serving its (old, intact)
        inode.  A ``.reason`` sidecar records why the file was pulled.
        Never raises: if even the move fails the file is unlinked so it
        cannot be served again.
        """
        logger.warning("quarantining corrupt artifact %s: %s", path, reason)
        target = self.corrupt_dir / path.name
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            if target.exists():
                target = self.corrupt_dir / f"{path.stem}.{os.getpid()}{path.suffix}"
            os.replace(path, target)
            self.stats.quarantined += 1
        except OSError as exc:
            logger.warning("quarantine move failed for %s: %s", path, exc)
            path.unlink(missing_ok=True)
            return
        try:
            target.with_suffix(target.suffix + ".reason").write_text(
                reason + "\n", encoding="utf-8"
            )
        except OSError:
            pass
        self._trim_quarantine()

    def _trim_quarantine(self) -> None:
        try:
            entries = sorted(
                (p for p in self.corrupt_dir.iterdir() if p.suffix == ".art"),
                key=lambda p: p.stat().st_mtime,
            )
        except OSError:
            return
        for stale in entries[: max(0, len(entries) - self.quarantine_max_files)]:
            stale.unlink(missing_ok=True)
            stale.with_suffix(stale.suffix + ".reason").unlink(missing_ok=True)

    def load_payload(self, key: str) -> bytes | None:
        """Raw validated artifact bytes for ``key``, or None.

        Used by the incremental fragment store to seed an edit session
        from a previously persisted artifact: the session needs owned
        bytes it can slice for the pure-line-shift rewrite, not a
        long-lived mapping.  Integrity failures just report a miss —
        the caller is on a best-effort reuse path and the regular
        :meth:`load_view` flow owns quarantine policy.
        """
        path = self.path_for(key)
        try:
            payload = path.read_bytes()
        except OSError:
            return None
        try:
            view = ArtifactView.from_buffer(payload, verify="header")
            view.validate(key)
        except ArtifactError:
            return None
        view.close()
        return payload

    def save_bytes(self, key: str, payload: bytes, replicate: bool = True) -> None:
        """Atomically persist flat artifact bytes.

        This is the *single* write path: every cold miss, incremental
        result and replica copy arrives here as encoded bytes — so
        torn-write fault injection and the atomic tmp+replace
        discipline cover both executors identically.
        The temp file is fsync'd before the rename (and the directory
        after it, best-effort) so the artifact the rename names is
        durable, not sitting in a write-back cache a power cut would
        tear.  Failures are logged, not raised.

        ``replicate=False`` marks a copy received *from* a peer: it is
        persisted identically but the :attr:`on_save` fan-out hook is
        suppressed, so replicated writes terminate instead of orbiting
        the ring.
        """
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        if self.fault_plan is not None and self.fault_plan.torn_write():
            # Injected fault: a truncated artifact lands at the *final*
            # path, as if the process died mid-write with no atomic
            # replace.  load_view() must detect it (truncated section
            # table / digest mismatch), quarantine it, and recompute.
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload[: max(1, len(payload) // 3)])
            self.stats.saves += 1
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self.stats.saves += 1
        except Exception as exc:
            self.stats.save_errors += 1
            logger.warning("store save failed for %s: %s", path, exc)
            tmp.unlink(missing_ok=True)
            return
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            pass
        if self.max_bytes is not None:
            self.prune(self.max_bytes)
        if replicate and self.on_save is not None:
            try:
                self.on_save(key, payload)
            except Exception as exc:
                logger.warning("replication hook failed for %s: %s", key, exc)

    def keys(self) -> list[str]:
        """All flat-artifact keys currently on disk (sorted).

        The anti-entropy repair pass walks this to offer each locally
        held artifact to the peers that should also hold it."""
        found: list[str] = []
        for path in self.root.glob("*/*.art"):
            if path.parent.name == "corrupt":
                continue
            found.append(path.stem)
        return sorted(found)

    def scrub(self) -> dict[str, Any]:
        """Deep-verify every stored artifact; quarantine what fails.

        Walks all ``.art`` files, re-checking the whole-file digest,
        every per-section digest, structural bounds, and the package
        version/key stamp.  Corrupt files move to ``corrupt/``; stale
        files (any other format included) are discarded.  Returns (and
        records in :attr:`last_scrub`) a summary dict.  The daemon runs
        this at startup and on a timer; it is safe concurrently with
        serving — a live mmap follows its inode, not the path the
        scrubber moves.
        """
        self.stats.scrubs += 1
        self.sweep_tmp()
        clean = corrupt = stale = 0
        for path in sorted(self.root.glob("*/*.art")):
            if path.parent.name == "corrupt":
                continue
            key = path.stem
            try:
                view = _open_valid(path, key, "deep")
            except FileNotFoundError:
                continue
            except ArtifactStaleError as exc:
                stale += 1
                self._discard(path, exc)
                continue
            except (ArtifactError, OSError) as exc:
                self.stats.corrupt_found += 1
                corrupt += 1
                self._quarantine(path, f"scrub: {exc}")
                continue
            view.close()
            clean += 1
        self.stats.scrubbed += clean
        summary = {
            "at": time.time(),
            "clean": clean,
            "corrupt": corrupt,
            "stale": stale,
        }
        self.last_scrub = summary
        return summary

    def prune(self, max_bytes: int) -> int:
        """Evict oldest-mtime artifacts until the store fits ``max_bytes``.

        Returns the total size (bytes) remaining.  Eviction order is
        modification time, so the most recently saved artifacts survive;
        a concurrently vanished file is skipped, never fatal.

        Pruning unlinks *paths*, not mappings: an ``ArtifactView`` the
        in-memory LRU still holds keeps its mmap — and therefore the
        inode and its intact bytes — alive until the view closes, so a
        pruned-but-cached entry keeps serving correct slices (POSIX
        unlink semantics; regression-tested in tests/test_integrity.py).
        """
        self.sweep_tmp()
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.root.glob("*/*.art"):
            if path.parent.name == "corrupt":
                continue
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append((info.st_mtime, info.st_size, path))
            total += info.st_size
        entries.sort()
        for _mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.stats.evicted += 1
        return total

    def sweep_tmp(self) -> int:
        """Delete orphaned ``*.tmp.<pid>`` files left by dead writers.

        A save that dies between opening its temp file and the atomic
        ``os.replace`` leaks the temp file forever — it matches no
        artifact glob, so neither :meth:`load_view` nor :meth:`prune`
        would ever reclaim it.  Runs at store open and before every
        prune; files younger than ``tmp_max_age_s`` are spared because
        a live sibling process may still be mid-save.  Returns how many
        files this call removed.
        """
        cutoff = time.time() - self.tmp_max_age_s
        swept = 0
        for tmp in self.root.glob("*/*.tmp.*"):
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
            except OSError:
                continue
            swept += 1
            logger.warning("swept orphaned temp file %s", tmp)
        self.stats.tmp_swept += swept
        return swept
