"""Per-layer metrics, measured from outside the program.

A traced run (``--trace 1``) keeps the end-to-end traffic and adds:

* spans around the client codec (``encode_message``/``decode_message``
  as the client module calls them) for every request of the traced half
  of the timed window;
* paired requests: the same slice routed and sent straight to the shard
  that owns it (owner from ``HashRing``), and the same request line
  through an in-process ``SliceServer.handle_line`` — the differences
  are the router hop and the daemon's socket layer;
* an in-process replay of those requests with spans around the calls
  ``handle_line`` makes into the cache, the flat slicer and the protocol
  payload/encoder, so the dispatch layer's self time is the span minus
  its children;
* timed direct calls into the store, artifact and cache on the
  workload's own programs, and into the cold pipeline and incremental
  engine on edit lineages of :data:`LINEAGE_PROGRAMS` (the warm
  workloads never edit, so the tier's own incremental counters stay 0);
* counters the tier already exposes through ``health`` and ``stats``.

Spans live in memory keyed by request id and are written out (JSON
lines) when the run ends.  Nothing here changes code under ``src/``:
wrappers are installed on module or instance attributes of *this*
process only, and removed afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

#: Per-layer metric -> the end-to-end metric and workload it should move.
#: Units and directions are in ``BENCHMARK.json``.
MOVES: dict[str, str] = json.loads(
    Path(__file__).with_name("layers.json").read_text(encoding="utf-8")
)

#: Suite programs whose edit lineages a traced run times on the cold
#: pipeline and the incremental engine: mid-sized, so one lineage's
#: reference analyses take a second or two.
LINEAGE_PROGRAMS = ("jtopas", "minibuild", "raytrace", "rules", "xmlsec")

#: Paired / replayed requests per traced run.
PAIRS = 320
#: Repetitions of each timed direct call.
REPEATS = 5
#: Probe lineages timed on the cold pipeline and the incremental engine
#: (after one untimed lineage): the process-pool hop is a few ms of a
#: cold slice, so it takes several pairs to stand out of the noise.
LINEAGES = 6


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """(microseconds, result) of one call."""
    start = time.perf_counter()
    result = fn()
    return (time.perf_counter() - start) * 1e6, result


class Tracer:
    """In-memory spans: name, start, end, parent, request id.

    Spans nest per thread.  A sequential replay whose calls hop threads
    (the daemon answers on a worker pool) uses one shared stack instead,
    see :meth:`shared_stack`.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._shared: list[dict[str, Any]] | None = None

    def _stack(self) -> list[dict[str, Any]]:
        if self._shared is not None:
            return self._shared
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "request": parent["request"] if parent else None,
            "name": name,
            "start": time.perf_counter(),
            "children_us": 0.0,
        }
        stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent["children_us"] += (span["end"] - span["start"]) * 1e6
            with self._lock:
                self.spans.append(span)

    @contextlib.contextmanager
    def request(self, role: str, name: str = "request") -> Iterator[dict[str, Any]]:
        """A root span; its id keys every span opened beneath it."""
        with self.span(name) as span:
            span["request"] = span["id"]
            span["role"] = role
            yield span

    @contextlib.contextmanager
    def shared_stack(self) -> Iterator[None]:
        self._shared = []
        try:
            yield
        finally:
            self._shared = None

    @contextlib.contextmanager
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Callable[[dict, tuple, Any], None] | None = None,
    ) -> Iterator[None]:
        """Wrap ``owner.attr`` in a span for the duration of the block."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
                if tag is not None:
                    tag(span, args, result)
                return result

        setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def instrument_client(self) -> contextlib.ExitStack:
        """Spans around the client's protocol codec."""
        from repro.server import client

        def size(span, args, _result):
            span["bytes"] = len(args[0])

        stack = contextlib.ExitStack()
        stack.enter_context(self.patch(client, "encode_message", "client.encode"))
        stack.enter_context(self.patch(client, "decode_message", "client.decode", size))
        return stack

    def durations(self, name: str, **where: Any) -> list[float]:
        return [
            (s["end"] - s["start"]) * 1e6
            for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in where.items())
        ]

    def self_times(self, name: str) -> list[float]:
        return [
            (s["end"] - s["start"]) * 1e6 - s["children_us"]
            for s in self.spans
            if s["name"] == name
        ]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                row = dict(span)
                row["start_us"] = round((row.pop("start") - origin) * 1e6, 1)
                row["end_us"] = round((row.pop("end") - origin) * 1e6, 1)
                handle.write(json.dumps(row, sort_keys=True) + "\n")


def _artifact_bytes(tier, key: str) -> bytes:
    for path in sorted(tier.store_dir.rglob(f"{key}.art")):
        if "corrupt" not in path.parts:
            return path.read_bytes()
    raise FileNotFoundError(f"artifact {key[:12]} not in the tier's store")


def _latency_us(client, params: dict) -> float:
    start = time.perf_counter()
    client.request("slice", **params)
    return (time.perf_counter() - start) * 1e6


def measure(tier, plan, seed: int, tracer: Tracer, untraced, observed, stats, cpu) -> dict:
    """Every per-layer metric as ``name -> value``.

    ``untraced`` are the window's untraced samples, ``observed`` every
    sample of set-up and the window; ``tier`` is the last set-up's tier,
    still running, and ``stats`` its counters at the end of its window.

    The in-process timings run with the load generator's heap frozen
    (``gc.freeze``): its samples, spans and references would otherwise make
    each collection inside a timed call scan a heap no tier process has.
    """
    gc.freeze()
    try:
        return _measure(tier, plan, seed, tracer, untraced, observed, stats, cpu)
    finally:
        gc.unfreeze()


def _measure(tier, plan, seed: int, tracer: Tracer, untraced, observed, stats, cpu) -> dict:
    from repro import AnalyzeOptions, analyze
    from repro.artifact import ArtifactView, content_key, encode_artifact
    from repro.incremental import DeclinedError, IncrementalSession, SessionDeadError
    from repro.server import daemon as daemon_module
    from repro.server.cache import AnalysisCache
    from repro.server.daemon import SliceServer
    from repro.server.protocol import encode_message
    from repro.sdg.nodes import THIN_KINDS
    from repro.server.store import DiskStore
    from repro.slicing.flatslice import FlatSlicer

    from perfbench.corpus import Lineages, suite_programs

    corpus = plan.corpus
    options = AnalyzeOptions()
    values: dict[str, float] = {}

    # -- the requests to pair and replay: more of the workload's warm traffic
    requests = list(itertools.islice(plan.main, PAIRS))

    # -- client codec, from the traced half of the window
    values["client.encode_us"] = _median(tracer.durations("client.encode"))
    values["client.decode_us"] = _median(tracer.durations("client.decode"))
    sizes = [s["bytes"] for s in tracer.spans if s["name"] == "client.decode"]
    values["client.response_kb"] = _median(sizes) / 1024

    # -- router hop: routed minus direct-to-owner, same request.  A single
    # daemon is its own front end, so there the hop measures zero.
    direct: list[float] = []
    routed: list[float] = []
    clients = {address: tier.client(address) for address in tier.daemons}
    with tier.client() as front:
        for index, request in enumerate(requests):
            params = corpus.params(request)
            owner = tier.owner(params["source"])
            if index % 2:
                routed.append(_latency_us(front, params))
                direct.append(_latency_us(clients[owner], params))
            else:
                direct.append(_latency_us(clients[owner], params))
                routed.append(_latency_us(front, params))
    for client in clients.values():
        client.close()
    values["router.hop_us"] = _median(routed) - _median(direct)
    values["router.hop_p99_us"] = _p99(routed) - _p99(direct)

    # -- in-process daemon over a private store holding the tier's bytes
    store = DiskStore(tier.run_dir / "inproc-store")
    keys: dict[int, str] = {}
    saves, opens, kbs = [], [], []
    for request in requests:
        if request.text in keys:
            continue
        key = content_key(corpus.texts[request.text].source, options)
        payload = _artifact_bytes(tier, key)
        saves.append(_timed(lambda: store.save_bytes(key, payload))[0] / 1000)
        for _ in range(REPEATS):
            us, view = _timed(lambda: ArtifactView.from_buffer(payload))
            opens.append(us)
            view.close()
        kbs.append(len(payload) / 1024)
        keys[request.text] = key
    values["store.save_ms"] = _median(saves)
    values["artifact.open_us"] = _median(opens)
    values["artifact.kb"] = _median(kbs)

    loads, unverified = [], []
    for key in keys.values():
        for _ in range(REPEATS):
            us, view = _timed(lambda: store.load_view(key))
            loads.append(us)
            view.close()
            us, view = _timed(lambda: store.load_view(key, verify="none"))
            unverified.append(us)
            view.close()
    values["store.load_view_us"] = _median(loads)
    values["store.verify_us"] = _median(loads) - _median(unverified)

    memory, disk = [], []
    for text_id in keys:
        text = corpus.texts[text_id]
        warm_cache = AnalysisCache(capacity=64, store=store)
        warm_cache.get_entry(text.source, text.filename, options)
        for _ in range(REPEATS):
            memory.append(
                _timed(lambda: warm_cache.get_entry(text.source, text.filename, options))[0]
            )
            cold_cache = AnalysisCache(capacity=8, store=store)
            disk.append(
                _timed(lambda: cold_cache.get_entry(text.source, text.filename, options))[0]
            )
    values["cache.lookup_us.memory"] = _median(memory)
    values["cache.lookup_us.disk"] = _median(disk)

    server = SliceServer(
        AnalysisCache(store=store), timeout=30.0, executor="thread", incremental=False
    )
    lines = [
        encode_message(
            {"id": index, "method": "slice", "params": corpus.params(request)}
        )
        for index, request in enumerate(requests)
    ]
    for line in lines:  # first pass settles the LRU into its steady state
        server.handle_line(line)

    def origin_tag(span, _args, result):
        span["origin"] = result[1]

    def flavor_tag(span, args, _result):
        span["flavor"] = "thin" if args[0].kinds == THIN_KINDS else "traditional"

    inproc: list[float] = []
    slice_lines: list[int] = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer.shared_stack())
        stack.enter_context(tracer.patch(server.cache, "get_entry", "cache.get_entry", origin_tag))
        stack.enter_context(tracer.patch(store, "load_view", "store.load_view"))
        stack.enter_context(tracer.patch(FlatSlicer, "slice_from_line", "slicing.slice", flavor_tag))
        stack.enter_context(tracer.patch(daemon_module, "slice_payload", "protocol.payload"))
        stack.enter_context(tracer.patch(daemon_module, "encode_message", "protocol.encode"))
        for line in lines:
            with tracer.request("warm", name="daemon.handle_line") as span:
                response = server.handle_line(line)
            inproc.append((span["end"] - span["start"]) * 1e6)
            slice_lines.append(json.loads(response)["result"]["line_count"])
    server.close()
    values["daemon.dispatch_us"] = _median(tracer.self_times("daemon.handle_line"))
    values["daemon.socket_us"] = (
        _median(direct)
        - _median(inproc)
        - values["client.encode_us"]
        - values["client.decode_us"]
    )
    values["slicing.thin_us"] = _median(tracer.durations("slicing.slice", flavor="thin"))
    values["slicing.traditional_us"] = _median(
        tracer.durations("slicing.slice", flavor="traditional")
    )
    values["slicing.slice_lines"] = _median(slice_lines)
    values["protocol.payload_us"] = _median(tracer.durations("protocol.payload"))
    values["protocol.encode_us"] = _median(tracer.durations("protocol.encode"))

    # -- cold pipeline, incremental engine and the process-pool hop
    ipc: list[float] = []
    encodes: list[float] = []
    seeds: list[float] = []
    tiers: dict[str, list[float]] = {"relocate": [], "delta": [], "resolve": []}
    declined = reused = reanalyzed = 0
    suite = suite_programs()
    lineages = Lineages(corpus, {n: suite[n] for n in LINEAGE_PROGRAMS}, seed, "P")
    for index in range(LINEAGES + 1):
        lineage = lineages.next_lineage()
        texts = list(dict.fromkeys(r.text for r in lineage))
        base = corpus.texts[texts[0]]
        with tier.client(tier.owner(base.source)) as owner:
            cold_us = _latency_us(owner, corpus.params(lineage[0]))
        analyze_us, analyzed = _timed(
            lambda: analyze(base.source, base.filename, options=options)
        )
        corpus.timings.append(analyzed.timings)
        encode_us, payload = _timed(
            lambda: encode_artifact(analyzed, key=content_key(base.source, options))
        )
        if index == 0:  # the first in-process analysis pays one-time set-up
            continue
        encodes.append(encode_us / 1000)
        ipc.append((cold_us - analyze_us - encode_us) / 1000)
        seed_us, session = _timed(
            lambda: IncrementalSession.from_analyzed(analyzed, base.source, payload)
        )
        seeds.append(seed_us / 1000)
        for text_id in texts[1:]:
            text = corpus.texts[text_id]
            try:
                us, outcome = _timed(lambda: session.apply_edit(text.source, text.filename))
            except (DeclinedError, SessionDeadError):
                declined += 1
                continue
            tiers[outcome.tier].append(us / 1000)
            reused += outcome.functions_reused
            reanalyzed += outcome.functions_reanalyzed
    values["artifact.encode_ms"] = _median(encodes)
    values["parallel.ipc_ms"] = _median(ipc)
    values["incremental.seed_ms"] = _median(seeds)
    for name, durations in tiers.items():
        values[f"incremental.{name}_ms"] = _median(durations)
        values[f"incremental.tier.{name}"] = len(durations)
    values["incremental.tier.declined"] = declined
    values["incremental.reuse_ratio"] = (
        reused / (reused + reanalyzed) if reused + reanalyzed else 0.0
    )

    stages = [t["stages_ms"] for t in corpus.timings]
    counts = [t["counts"] for t in corpus.timings]
    for metric, stage in (
        ("lang.parse_ms", "parse"),
        ("lang.typecheck_ms", "typecheck"),
        ("ir.lower_ms", "ir"),
        ("ir.ssa_ms", "ssa"),
        ("analysis.pointsto_ms", "pointsto"),
        ("sdg.build_ms", "sdg"),
    ):
        values[metric] = _median([s.get(stage, 0.0) for s in stages])
    for metric, count in (
        ("analysis.pts_keys", "pts_keys"),
        ("sdg.nodes", "sdg_nodes"),
        ("sdg.edges", "sdg_edges"),
    ):
        values[metric] = _median([c.get(count, 0) for c in counts])

    # -- counters the tier exposes
    health = list(stats["daemons"].values())
    daemon_stats = list(stats["daemon_stats"].values())

    def total(payloads, *path) -> float:
        out = 0.0
        for payload in payloads:
            for step in path:
                payload = (payload or {}).get(step)
            out += payload or 0
        return out

    router = (stats["router"] or {}).get("router", {})
    values["router.failovers"] = router.get("failover_total", 0)
    values["router.hedges"] = router.get("hedges_total", 0)
    values["router.hedge_wins"] = router.get("hedge_wins", 0)
    values["daemon.shed"] = total(health, "shed_total")
    values["daemon.timeouts"] = total(daemon_stats, "methods", "slice", "timeouts")
    origins: dict[str, int] = {}
    for sample in observed:
        origins[sample.origin] = origins.get(sample.origin, 0) + 1
    for origin in ("memory", "disk", "replica", "incremental", "analyzed"):
        values[f"cache.origin.{origin}"] = origins.get(origin, 0)
    window = [s for s in observed if s.request.role == "warm"]
    warm = sum(s.origin in ("memory", "disk", "replica") for s in window)
    values["cache.warm_ratio"] = warm / max(1, len(window))
    values["cache.evictions"] = total(daemon_stats, "cache", "evictions")
    values["store.quarantined"] = total(health, "store", "quarantined")
    values["fragments.sessions_seeded"] = total(health, "fragments", "sessions_seeded")
    values["fragments.sessions_dropped"] = total(health, "fragments", "sessions_dropped")
    values["fragments.incremental_misses"] = total(health, "fragments", "incremental_misses")
    values["replication.replicated_total"] = total(health, "replication", "replicated_total")
    values["replication.errors"] = total(health, "replication", "replication_errors")
    values["replication.queue_depth"] = total(health, "replication", "queue_depth")
    values["parallel.crashes"] = total(health, "pool", "crashes")
    values["parallel.respawns"] = total(health, "pool", "respawns")

    # -- the benchmark itself
    values["loadgen.cpu_share"] = cpu["loadgen"] / max(1e-9, cpu["loadgen"] + cpu["tier"])
    warm_untraced = [s.ms for s in untraced if s.request.role == "warm" and s.error is None]
    base_p50 = _median(warm_untraced)
    traced_p50 = _median(tracer.durations("request", role="warm")) / 1000
    values["trace.overhead_pct"] = (
        (traced_p50 - base_p50) / base_p50 * 100 if base_p50 else 0.0
    )
    explained = (
        values["client.encode_us"]
        + values["client.decode_us"]
        + values["router.hop_us"]
        + values["daemon.socket_us"]
        + _median(inproc)
    )
    values["trace.unattributed_us"] = base_p50 * 1000 - explained

    return {name: float(values[name]) for name in MOVES}
