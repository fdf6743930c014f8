"""Ring replication of flat artifacts between shard daemons.

PR 10 retires the tier's single point of failure: instead of every
shard writing into one shared :class:`~repro.server.store.DiskStore`,
each shard owns a private store and the :class:`Replicator` copies
every artifact it writes to the next ``r - 1`` distinct shards
clockwise on the same consistent-hash ring the router routes by
(:meth:`repro.server.ring.HashRing.replicas_for`; both rings have
:data:`~repro.server.ring.DEFAULT_REPLICAS` virtual nodes per shard).
For one key, the replica set is a prefix of the ring's failover order.
The router walks the ring by source fingerprint and copies are placed
by store key, so a failed-over request that misses locally is answered
by the read-through fetch below.

Three mechanisms, weakest first:

* **Write fan-out** (:meth:`Replicator.artifact_saved`, installed as
  the store's ``on_save`` hook): fire-and-forget.  A background thread
  drains a bounded queue and pushes ``put_artifact`` to each replica
  peer; a dead peer just drops the copy (counted, never raised) — the
  repair pass owns eventual convergence.
* **Read-through fetch** (:meth:`Replicator.fetch`, installed as the
  cache's ``replica_fetch`` hook): on a local memory+disk miss, ask
  the other replica holders via ``get_artifact`` before recomputing.
  Fetched bytes are validated against the key, and the cache persists
  them locally, so a shard that lost its disk re-warms one request at
  a time instead of re-analyzing.
* **Anti-entropy repair** (:meth:`Replicator.repair`): walk the local
  store, and for every key this shard is a designated holder of, offer
  the key list to the other holders (``sync_offer``) and push the
  copies they are missing.  The shard pool's health-probe thread
  triggers this on a cadence, so a peer that was down during fan-out
  converges within a repair interval of coming back.

Each peer is reached through a :class:`~repro.server.shardpool.Shard`,
the router's own pooled client: concurrent pushes, fetches and repair
passes each borrow a connection of their own, so a fetch never waits
behind a slow push, and an answered error (``NotFound``) keeps its
connection.

Replication traffic rides the ordinary JSON-lines protocol (payloads
base64-wrapped) and is answered on the daemon's introspection path —
no worker dispatch, so a saturated pool cannot starve convergence.
Received copies are digest-validated against their key before landing
on disk and saved with ``replicate=False``: a copy terminates at its
holder instead of orbiting the ring.
"""

from __future__ import annotations

import base64
import logging
import queue
import threading
from typing import TYPE_CHECKING, Any

from repro.artifact import ArtifactError, ArtifactView
from repro.server.client import ServerError
from repro.server.ring import HashRing
from repro.server.shardpool import Shard

if TYPE_CHECKING:
    from repro.server.store import DiskStore

logger = logging.getLogger("repro.server")

#: Total copies of each artifact (owner included) when replication is
#: on.  2 survives any single shard/store loss, which is the tier's
#: stated failure budget.
DEFAULT_REPLICATION_FACTOR = 2

#: Bounded fan-out backlog: beyond this, new copies are dropped (and
#: counted) rather than ballooning memory — repair re-converges them.
_QUEUE_CAP = 256

#: Peer RPC timeout.  Replication is bulk background traffic; a slow
#: peer should cost seconds, not the serving default of 30.
_PEER_TIMEOUT_S = 10.0


def encode_payload(payload: bytes) -> str:
    return base64.b64encode(payload).decode("ascii")


def decode_payload(encoded: Any) -> bytes:
    if not isinstance(encoded, str):
        raise ValueError("payload must be a base64 string")
    return base64.b64decode(encoded.encode("ascii"), validate=True)


def validate_artifact(key: str, payload: bytes) -> None:
    """Digest-check ``payload`` against ``key``; raises ArtifactError.

    Every byte that crosses the wire is verified before it can land in
    a store or be served — a corrupt or mis-keyed copy is refused at
    the boundary, exactly like a corrupt file at load time.
    """
    view = ArtifactView.from_buffer(payload, verify="header")
    try:
        view.validate(key)
    finally:
        view.close()


class Replicator:
    """Per-daemon replication engine over one shard's private store."""

    def __init__(
        self,
        store: "DiskStore",
        self_address: str,
        peers: list[str],
        factor: int = DEFAULT_REPLICATION_FACTOR,
    ) -> None:
        self.store = store
        self.self_address = self_address
        self.factor = max(1, int(factor))
        self.ring = HashRing(peers)
        if self_address not in self.ring:
            self.ring.add(self_address)
        self._peers: dict[str, Shard] = {}
        for address in self.ring.nodes():
            if address != self_address:
                host, port = address.rsplit(":", 1)
                self._peers[address] = Shard(
                    host, int(port), request_timeout=_PEER_TIMEOUT_S
                )
        self._queue: queue.Queue[tuple[str, str, bytes] | None] = queue.Queue(
            maxsize=_QUEUE_CAP
        )
        self._stats_lock = threading.Lock()
        self.replicated_total = 0
        self.replication_errors = 0
        self.replication_dropped = 0
        self.replica_fetches = 0
        self.replica_fetch_hits = 0
        self.repairs = 0
        self.repair_pushed = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._drain, name="repro-replicate", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def holders(self, key: str) -> list[str]:
        """The shards designated to hold ``key`` (owner first)."""
        return self.ring.replicas_for(key, min(self.factor, len(self.ring)))

    def _peer_holders(self, key: str) -> list[str]:
        return [a for a in self.holders(key) if a != self.self_address]

    # ------------------------------------------------------------------
    # Write fan-out (store on_save hook)
    # ------------------------------------------------------------------

    def artifact_saved(self, key: str, payload: bytes) -> None:
        """Enqueue one freshly saved artifact for fan-out.  Never blocks
        and never raises into the save path."""
        if self._closed:
            return
        for peer in self._peer_holders(key):
            try:
                self._queue.put_nowait((peer, key, payload))
            except queue.Full:
                with self._stats_lock:
                    self.replication_dropped += 1

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            peer, key, payload = job
            try:
                self._push(peer, key, payload)
                with self._stats_lock:
                    self.replicated_total += 1
            except Exception as exc:  # noqa: BLE001 - fire and forget
                with self._stats_lock:
                    self.replication_errors += 1
                logger.warning(
                    "replication to %s failed for %s: %s", peer, key[:12], exc
                )

    def _push(self, peer: str, key: str, payload: bytes) -> None:
        self._peers[peer].call(
            "put_artifact", {"key": key, "payload": encode_payload(payload)}
        )

    # ------------------------------------------------------------------
    # Read-through fetch (cache replica_fetch hook)
    # ------------------------------------------------------------------

    def fetch(self, key: str) -> bytes | None:
        """Ask the other holders of ``key`` for a copy; validated bytes
        or None.  The caller persists them."""
        peers = self._peer_holders(key)
        if not peers:
            return None
        with self._stats_lock:
            self.replica_fetches += 1
        for peer in peers:
            try:
                result = self._peers[peer].call("get_artifact", {"key": key})
            except ServerError as exc:
                if exc.error_type != "NotFound":
                    logger.warning(
                        "replica fetch from %s failed for %s: %s",
                        peer, key[:12], exc,
                    )
                continue
            try:
                payload = decode_payload(result.get("payload"))
                validate_artifact(key, payload)
            except (ValueError, ArtifactError) as exc:
                logger.warning(
                    "replica %s returned bad bytes for %s: %s",
                    peer, key[:12], exc,
                )
                continue
            with self._stats_lock:
                self.replica_fetch_hits += 1
            return payload
        return None

    # ------------------------------------------------------------------
    # Anti-entropy repair
    # ------------------------------------------------------------------

    def repair(self) -> dict[str, Any]:
        """One repair pass: offer every locally held key to its other
        designated holders; push what they are missing.  Returns a
        summary dict; all failures are counted, none raised."""
        offered: dict[str, list[str]] = {}
        for key in self.store.keys():
            for peer in self._peer_holders(key):
                offered.setdefault(peer, []).append(key)
        pushed = errors = 0
        for peer, keys in offered.items():
            try:
                result = self._peers[peer].call("sync_offer", {"keys": keys})
                missing = result.get("missing") or []
            except ServerError:
                errors += 1
                continue
            for key in missing:
                payload = self.store.load_payload(key)
                if payload is None:
                    continue
                try:
                    self._push(peer, key, payload)
                    pushed += 1
                except Exception:  # noqa: BLE001
                    errors += 1
        with self._stats_lock:
            self.repairs += 1
            self.repair_pushed += pushed
            self.replication_errors += errors
        return {
            "peers": len(offered),
            "pushed": pushed,
            "errors": errors,
        }

    def repair_async(self) -> None:
        """Kick a repair pass on a throwaway thread (probe-loop cadence
        must never block on peer RPCs)."""
        threading.Thread(
            target=self._repair_guarded, name="repro-repair", daemon=True
        ).start()

    def _repair_guarded(self) -> None:
        try:
            self.repair()
        except Exception as exc:  # noqa: BLE001
            logger.warning("repair pass failed: %s", exc)

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        with self._stats_lock:
            return {
                "self": self.self_address,
                "peers": len(self.ring) - 1,
                "factor": self.factor,
                "replicated_total": self.replicated_total,
                "replication_errors": self.replication_errors,
                "replication_dropped": self.replication_dropped,
                "queue_depth": self._queue.qsize(),
                "replica_fetches": self.replica_fetches,
                "replica_fetch_hits": self.replica_fetch_hits,
                "repairs": self.repairs,
                "repair_pushed": self.repair_pushed,
            }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._worker.join(timeout=2.0)
        for shard in self._peers.values():
            shard.close_connections()
