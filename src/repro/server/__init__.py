"""Persistent slice server: a long-lived analysis daemon.

The CLI reruns the whole pipeline (parse → type-check → SSA →
points-to → SDG) on every invocation, but the SDG is exactly the
artifact worth amortizing across queries — the paper's WALA tool
builds it once and answers many slice requests against it.  This
package turns the library into a service:

* :mod:`repro.server.protocol` — line-delimited JSON requests and
  responses, plus the result serializers shared with ``--format json``
  in the CLI;
* :mod:`repro.server.store` — an on-disk content-addressed store of
  flat, mmap-able analysis artifacts (:mod:`repro.artifact`), so a
  restarted daemon answers warm slice queries without re-analysis;
* :mod:`repro.server.cache` — the two-tier cache (in-memory LRU over
  the disk store) keyed by ``(sha256(source), options)``;
* :mod:`repro.server.daemon` — the request dispatcher with per-request
  timeouts, error isolation, and latency/hit-rate observability, and
  the stdio/TCP serving loops;
* :mod:`repro.server.client` — a resilient Python client that spawns a
  stdio daemon or connects over TCP, with per-request deadlines and
  jittered-backoff retries for ``Overloaded``/``Disconnected``;
* :mod:`repro.server.faults` — the fault-injection hooks the chaos
  tests use to prove the daemon survives slow analyses, worker
  crashes, torn disk writes, and dropped connections;
* :mod:`repro.server.ring` / :mod:`repro.server.shardpool` /
  :mod:`repro.server.router` — the sharded serving tier: a consistent
  hash ring over ``source_fingerprint``, shard lifecycle (spawn,
  probe, drain), and a router served by the daemon's TCP loop that
  speaks the same protocol while routing each request to the shard
  whose cache owns it.

Quickstart::

    from repro.server import SliceClient

    with SliceClient.spawn() as client:
        result = client.slice(source_text, line=26)
        print(result["source_view"])
"""

from __future__ import annotations

from repro.server.cache import AnalysisCache, cache_key
from repro.server.client import ServerError, SliceClient
from repro.server.daemon import SliceServer, serve_stdio, serve_tcp, start_tcp_server
from repro.server.faults import FaultPlan, InjectedFault
from repro.server.protocol import PROTOCOL_VERSION, ProtocolError
from repro.server.ring import HashRing
from repro.server.router import Router, start_router
from repro.server.shardpool import Shard, ShardPool, ShardSpawnError
from repro.server.store import DiskStore

__all__ = [
    "AnalysisCache",
    "DiskStore",
    "FaultPlan",
    "HashRing",
    "InjectedFault",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Router",
    "ServerError",
    "Shard",
    "ShardPool",
    "ShardSpawnError",
    "SliceClient",
    "SliceServer",
    "cache_key",
    "serve_stdio",
    "serve_tcp",
    "start_tcp_server",
    "start_router",
]
