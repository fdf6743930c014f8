"""Consistent hash ring: which shard owns which ``source_fingerprint``.

The sharded tier's whole point is artifact locality — every program's
analyzed SDG should be hot in exactly one shard's LRU.  A modulo hash
would remap nearly every fingerprint whenever a shard joins or leaves;
a consistent-hash ring remaps only the ~1/N of keys whose arc the
changed node owned, so a shard failure warms the survivors instead of
flushing the whole tier.

Mechanics (the classic Karger construction):

* each node is hashed onto the ring at ``replicas`` pseudo-random
  points (virtual nodes), which smooths ownership toward fair 1/N
  shares — the more replicas, the tighter the balance;
* a key is owned by the first node point at or clockwise-after its own
  hash position;
* :meth:`HashRing.preference` walks further clockwise collecting each
  *distinct* node once — the failover order: when the owner is down,
  the next-healthy node in preference order takes the request (and,
  symmetrically, inherits the arc if the owner leaves for good).

Everything is derived from SHA-256, so placement is deterministic
across processes, Python versions, and restarts — two routers in front
of the same shard list route identically without coordination.
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual nodes per shard.  The router and every shard's replicator
#: build their rings with it, so they agree on each key's order.
DEFAULT_REPLICAS = 64

#: The ring coordinate space: the first 8 bytes of a SHA-256 digest.
_SPACE = 1 << 64


def _hash64(data: str) -> int:
    return int.from_bytes(
        hashlib.sha256(data.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Deterministic consistent-hash ring over opaque node names."""

    def __init__(
        self, nodes: list[str] | tuple[str, ...] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: list[int] = []  # sorted ring positions
        self._owners: dict[int, str] = {}  # position -> node
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = _hash64(f"{node}#{replica}")
            # A 64-bit collision between distinct (node, replica) pairs
            # is astronomically unlikely; first writer keeps the point.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if self._owners[p] != node]
        self._owners = {
            p: n for p, n in self._owners.items() if n != node
        }

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning ``key``; raises on an empty ring."""
        if not self._points:
            raise LookupError("hash ring is empty")
        index = bisect.bisect_right(self._points, _hash64(key))
        if index == len(self._points):
            index = 0  # wrap: the lowest point owns the top arc
        return self._owners[self._points[index]]

    def preference(self, key: str) -> list[str]:
        """All nodes in clockwise walk order from ``key`` — the owner
        first, then each distinct successor: the failover order."""
        if not self._points:
            return []
        start = bisect.bisect_right(self._points, _hash64(key))
        ordered: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            node = self._owners[point]
            if node not in seen:
                seen.add(node)
                ordered.append(node)
                if len(seen) == len(self._nodes):
                    break
        return ordered

    def replicas_for(self, key: str, count: int) -> list[str]:
        """The ``count`` distinct nodes holding copies of ``key`` — the
        owner first, then its clockwise successors.

        ``count`` is the *total* copy count (owner included), clamped to
        the ring size: asking for 3 copies on a 2-node ring returns both
        nodes.  Because the list is a prefix of :meth:`preference`, the
        router's failover walk visits exactly the nodes that hold a
        replica before falling through to nodes that would recompute.
        """
        if count < 1:
            raise ValueError("replica count must be >= 1")
        return self.preference(key)[:count]

    def ownership(self) -> dict[str, float]:
        """Fraction of the hash space each node owns (sums to ~1.0)."""
        if not self._points:
            return {}
        shares: dict[str, float] = {node: 0.0 for node in self._nodes}
        for index, point in enumerate(self._points):
            previous = self._points[index - 1]  # [-1] wraps: the top arc
            arc = (point - previous) % _SPACE or _SPACE
            shares[self._owners[point]] += arc / _SPACE
        return shares
