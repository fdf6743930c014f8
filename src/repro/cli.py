"""Command-line interface: ``python -m repro.cli``.

Subcommands::

    slice FILE --line N [--line M ...] [--batch-file F] [--traditional]
               [--no-stdlib] [--context N] [--deadline S]
    run FILE [ARG ...]
    explain FILE --line N            # control explainers for a line
    why FILE --source N --sink M     # producer path between two lines
    chop FILE --source N --sink M    # thin chop between two lines
    dot FILE [--line N] [-o OUT]     # Graphviz export (slice or full)
    stats FILE                       # analysis statistics
    serve [--tcp HOST:PORT]          # long-lived analysis daemon
    serve --tcp H:P --shards N       # router + N local shard daemons
    route --shard H:P [--shard ...]  # router over external shards
    health --server HOST:PORT        # daemon (or router) load/topology
    fuzz [--budget 60s] [--seed N]   # fuzz the analyzer's no-crash contract

``FILE`` may also be the name of a shipped suite program (e.g.
``figure1``).

``slice`` and ``stats`` accept ``--format json`` for machine-readable
output (the same payloads the server protocol emits).  The query
subcommands accept ``--server HOST:PORT`` to route the request through
a running ``repro serve --tcp`` daemon instead of analyzing in-process
— warm queries skip the whole pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

from repro import analyze
from repro.frontend import compile_source
from repro.interp.interpreter import run_program
from repro.suite.loader import load_source, program_names

DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-server"


def _read_program(spec: str) -> tuple[str, str]:
    path = Path(spec)
    if path.exists():
        try:
            return path.read_text(), path.name
        except OSError as exc:
            reason = exc.strerror or str(exc)
            raise SystemExit(
                f"error: cannot read {spec!r}: {reason}"
            ) from None
    if spec in program_names():
        return load_source(spec), f"{spec}.mj"
    raise SystemExit(
        f"error: {spec!r} is neither a file nor a suite program "
        f"(known: {', '.join(program_names())})"
    )


# ----------------------------------------------------------------------
# Server routing
# ----------------------------------------------------------------------


def _parse_hostport(spec: str) -> tuple[str, int]:
    host, _, port_text = spec.rpartition(":")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(
            f"error: bad address {spec!r} (expected HOST:PORT)"
        ) from None
    return host, port


def _server_request(address: str, method: str, **params: Any) -> dict[str, Any]:
    from repro.server.client import ServerError, SliceClient

    host, port = _parse_hostport(address)
    try:
        with SliceClient.connect(host, port) as client:
            return client.request(method, **params)
    except ServerError as exc:
        raise SystemExit(f"error: server: {exc}") from None
    except OSError as exc:
        raise SystemExit(
            f"error: cannot reach server at {address}: {exc}"
        ) from None


def _print_json(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_timings(timings: dict[str, Any] | None) -> None:
    """Print a pipeline stage table to stderr (``--timings``)."""
    from repro.profiling import render_timings

    if not timings:
        print("timings: not available for this request", file=sys.stderr)
        return
    print("pipeline timings:", file=sys.stderr)
    print(render_timings(timings), file=sys.stderr)


# ----------------------------------------------------------------------
# Query subcommands
# ----------------------------------------------------------------------


def _read_batch_lines(path: str) -> list[int]:
    """Seed lines from a batch file: one integer per line, ``#`` comments."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        reason = exc.strerror or str(exc)
        raise SystemExit(f"error: cannot read {path!r}: {reason}") from None
    seeds: list[int] = []
    for number, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            seeds.append(int(stripped))
        except ValueError:
            raise SystemExit(
                f"error: {path}:{number}: not an integer seed line: {raw!r}"
            ) from None
    return seeds


def _render_slice_text(payload: dict[str, Any], name: str, line: int) -> int:
    """Print one seed's slice block (the single text formatter every
    path — local, server, batch — routes through).  Returns exit code."""
    if not payload["seed_count"]:
        print(f"no statements found at {name}:{line}", file=sys.stderr)
        return 1
    print(f"{payload['flavor']} slice from {name}:{line} "
          f"({payload['line_count']} lines):\n")
    print(payload["source_view"])
    return 0


def _cmd_slice(args: argparse.Namespace) -> int:
    from repro.server.protocol import slice_batch_payload, slice_payload

    source, name = _read_program(args.file)
    flavor = "traditional" if args.traditional else "thin"
    if args.deadline is not None and args.deadline <= 0:
        raise SystemExit("error: --deadline must be positive")
    seeds = list(args.line or [])
    if args.batch_file:
        seeds.extend(_read_batch_lines(args.batch_file))
    if not seeds:
        raise SystemExit(
            "error: need at least one seed (--line N, repeatable, "
            "or --batch-file FILE)"
        )
    analyzed = None
    distinct_programs = 1
    if args.server:
        common = dict(
            source=source,
            filename=name,
            flavor=flavor,
            context=args.context,
            include_stdlib=not args.no_stdlib,
            deadline=args.deadline,
        )
        if len(seeds) == 1:
            payloads = [
                _server_request(args.server, "slice", line=seeds[0], **common)
            ]
        else:
            batch = _server_request(
                args.server, "slice_batch", lines=seeds, **common
            )
            payloads = batch["results"]
            distinct_programs = batch["distinct_programs"]
    else:
        from repro import AnalyzeOptions, Budget, BudgetExceeded

        options = AnalyzeOptions(
            include_stdlib=not args.no_stdlib,
            budget=(
                Budget.from_timeout(args.deadline)
                if args.deadline is not None
                else None
            ),
        )
        try:
            analyzed = analyze(source, name, options=options)
        except BudgetExceeded as exc:
            raise SystemExit(
                f"error: analysis exceeded the {args.deadline:g}s deadline "
                f"({exc})"
            ) from None
        payloads = []
        for line in seeds:
            slicer = (
                analyzed.traditional_slicer
                if args.traditional
                else analyzed.thin_slicer
            )
            result = slicer.slice_from_line(line)
            payloads.append(
                slice_payload(
                    result,
                    program=name,
                    line=line,
                    flavor=flavor,
                    context=args.context,
                )
            )
    if args.timings:
        # Server-side analyses report timings via ``stats``, not per slice.
        _print_timings(None if args.server else analyzed.timings)
    if args.format == "json":
        if len(payloads) == 1:
            _print_json(payloads[0])
        else:
            _print_json(
                slice_batch_payload(
                    payloads, distinct_programs=distinct_programs
                )
            )
        return 0 if all(p["seed_count"] for p in payloads) else 1
    status = 0
    for payload, line in zip(payloads, seeds):
        status |= _render_slice_text(payload, name, line)
    return status


def _cmd_run(args: argparse.Namespace) -> int:
    source, name = _read_program(args.file)
    compiled = compile_source(source, name, include_stdlib=True)
    result = run_program(compiled.ast, compiled.table, args.args)
    for line in result.output:
        print(line)
    if result.error is not None:
        print(f"uncaught exception: {result.error}", file=sys.stderr)
        return 1
    if result.timed_out:
        print("execution timed out", file=sys.stderr)
        return 2
    return 0


def _local_view(source: str, name: str, args: argparse.Namespace):
    """The flat artifact view the daemon would serve for ``source``, so
    local ``explain``/``why``/``chop`` share its payload builders."""
    from repro.artifact import ArtifactView, encode_artifact

    analyzed = analyze(source, name, include_stdlib=not args.no_stdlib)
    return ArtifactView.from_buffer(encode_artifact(analyzed))


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.server.protocol import explain_payload

    source, name = _read_program(args.file)
    if args.server:
        payload = _server_request(
            args.server,
            "explain",
            source=source,
            filename=name,
            line=args.line,
            include_stdlib=not args.no_stdlib,
        )
    else:
        payload = explain_payload(
            _local_view(source, name, args), program=name, line=args.line
        )
    if not payload["seed_count"]:
        print(f"no statements found at {name}:{args.line}", file=sys.stderr)
        return 1
    for conditional in payload["conditionals"]:
        print(f"{conditional['line']:5d}  {conditional['text']}")
    if not payload["conditionals"]:
        print("(no governing conditionals)")
    return 0


def _cmd_why(args: argparse.Namespace) -> int:
    from repro.server.protocol import why_payload

    source, name = _read_program(args.file)
    if args.server:
        payload = _server_request(
            args.server,
            "why",
            source=source,
            filename=name,
            source_line=args.source,
            sink_line=args.sink,
            include_stdlib=not args.no_stdlib,
        )
    else:
        payload = why_payload(
            _local_view(source, name, args),
            program=name,
            source_line=args.source,
            sink_line=args.sink,
        )
    if not payload["found"]:
        print(
            f"no producer-flow path from {name}:{args.source} to "
            f"{name}:{args.sink}",
            file=sys.stderr,
        )
        return 1
    print(
        f"value flow from {name}:{args.source} to {name}:{args.sink}:\n"
    )
    print(payload["rendered"])
    return 0


def _cmd_chop(args: argparse.Namespace) -> int:
    from repro.server.protocol import chop_payload

    source, name = _read_program(args.file)
    flavor = "traditional" if args.traditional else "thin"
    if args.server:
        payload = _server_request(
            args.server,
            "chop",
            source=source,
            filename=name,
            source_line=args.source,
            sink_line=args.sink,
            flavor=flavor,
            include_stdlib=not args.no_stdlib,
        )
    else:
        payload = chop_payload(
            _local_view(source, name, args),
            program=name,
            source_line=args.source,
            sink_line=args.sink,
            flavor=flavor,
        )
    if payload["empty"]:
        print(
            f"empty chop: {name}:{args.source} does not reach "
            f"{name}:{args.sink}",
            file=sys.stderr,
        )
        return 1
    print(f"{payload['flavor']} chop ({payload['line_count']} lines):")
    for row in payload["lines"]:
        print(f"  {row['line']:5d}  {row['text']}")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.sdg.export import sdg_to_dot, slice_to_dot

    source, name = _read_program(args.file)
    analyzed = analyze(source, name, include_stdlib=not args.no_stdlib)
    if args.line is not None:
        result = analyzed.thin_slicer.slice_from_line(args.line)
        if not result.seeds:
            print(f"no statements found at {name}:{args.line}", file=sys.stderr)
            return 1
        dot = slice_to_dot(result, analyzed.sdg, title=f"{name}:{args.line}")
    else:
        dot = sdg_to_dot(analyzed.sdg, title=name)
    if args.output:
        Path(args.output).write_text(dot + "\n")
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


_STATS_LABELS = [
    ("program", "program:           "),
    ("classes", "classes:           "),
    ("functions_ir", "functions (IR):    "),
    ("reachable_functions", "reachable functions:"),
    ("call_graph_nodes", "call graph nodes:  "),
    ("call_graph_edges", "call graph edges:  "),
    ("sdg_statements", "SDG statements:    "),
    ("sdg_edges", "SDG edges:         "),
]


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.server.protocol import stats_payload

    source, name = _read_program(args.file)
    if args.server:
        payload = _server_request(
            args.server,
            "stats",
            source=source,
            filename=name,
            include_stdlib=not args.no_stdlib,
        )
    else:
        analyzed = analyze(source, name, include_stdlib=not args.no_stdlib)
        payload = stats_payload(analyzed, name)
    if args.timings:
        _print_timings(payload.get("timings"))
    if args.format == "json":
        _print_json(payload)
        return 0
    for key, label in _STATS_LABELS:
        value = payload[key]
        if isinstance(value, int):
            print(f"{label}{value:6d}")
        else:
            print(f"{label} {value}")
    return 0


# ----------------------------------------------------------------------
# The daemon
# ----------------------------------------------------------------------


def _parse_duration(text: str) -> float:
    """``"60"``, ``"60s"``, or ``"5m"`` → seconds."""
    raw = text.strip().lower()
    scale = 1.0
    if raw.endswith("m"):
        raw, scale = raw[:-1], 60.0
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise SystemExit(
            f"error: bad duration {text!r} (use e.g. 60, 60s, or 5m)"
        ) from None
    if value <= 0:
        raise SystemExit("error: duration must be positive")
    return value


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import run_campaign
    from repro.fuzz.runner import CrashRecord, default_corpus

    corpus = default_corpus()
    corpus_dir = Path(args.corpus) if args.corpus else None
    if corpus_dir is not None:
        if not corpus_dir.is_dir():
            raise SystemExit(f"error: {args.corpus!r} is not a directory")
        extra = sorted(corpus_dir.glob("*.mj"))
        corpus.extend(p.read_text(encoding="utf-8") for p in extra)

    def progress(record: CrashRecord) -> None:
        print(
            f"NEW FAILURE [{record.verdict}] {record.error_type}: "
            f"{record.message[:100]} (seed {record.seed})"
            + (f" -> {record.path}" if record.path else ""),
            file=sys.stderr,
        )

    report = run_campaign(
        budget_s=_parse_duration(args.budget),
        seed=args.seed,
        corpus=corpus,
        crash_dir=args.crash_dir,
        input_budget_s=args.input_budget,
        max_inputs=args.max_inputs,
        progress=progress,
    )
    if args.format == "json":
        _print_json(report.as_dict())
    else:
        print(
            f"fuzzed {report.executed} inputs in {report.elapsed_s:.1f}s "
            f"(seed {report.seed}): {report.generated} generated, "
            f"{report.mutated} mutated; {report.ok} analyzed ok, "
            f"{report.structured_errors} structured errors, "
            f"{len(report.crashes)} contract violations"
        )
        for crash in report.crashes:
            where = f" ({crash.path})" if crash.path else ""
            print(
                f"  [{crash.verdict}] {crash.error_type}: "
                f"{crash.message[:100]}{where}"
            )
    return 1 if report.failed else 0


def _cmd_health(args: argparse.Namespace) -> int:
    payload = _server_request(args.server, "health")
    if args.format == "json":
        _print_json(payload)
    elif payload.get("role") == "router":
        if payload["healthy"]:
            state = "healthy"
        elif payload.get("shutting_down"):
            state = "draining"
        else:
            state = "degraded"
        counters = payload["router"]
        print(
            f"{state}: {payload['healthy_shards']}/{payload['shard_count']} "
            f"shards healthy, {counters['forwarded_total']} forwarded, "
            f"{counters['failover_total']} failovers, "
            f"{counters['shed_total']} shed, up {payload['uptime_s']:.0f}s"
        )
        for address, shard in payload["shards"].items():
            share = payload["ring"]["ownership"].get(address)
            line = (
                f"  {address}: {shard['state']}, "
                f"{shard['forwarded_total']} forwarded"
            )
            if share is not None:
                line += f", owns {share:.0%}"
            if shard.get("last_error"):
                line += f" ({shard['last_error'][:80]})"
            print(line)
    else:
        state = "healthy" if payload["healthy"] else "shutting down"
        extra = ""
        quarantine = payload.get("quarantine")
        breaker = payload.get("breaker")
        if quarantine is not None and breaker is not None:
            extra = (
                f", {quarantine['quarantined']} quarantined, "
                f"breaker {breaker['state']}"
            )
        print(
            f"{state}: {payload['busy']}/{payload['workers']} workers busy, "
            f"{payload['queued']} queued (max {payload['max_queue']}), "
            f"{payload['shed_total']} shed, "
            f"{payload['cancelled_total']} cancelled"
            f"{extra}, up {payload['uptime_s']:.0f}s"
        )
    return 0 if payload["healthy"] else 1


def _setup_server_logging(quiet: bool) -> None:
    import logging

    if quiet:
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    for name in ("repro.server", "repro.router"):
        server_logger = logging.getLogger(name)
        server_logger.addHandler(handler)
        server_logger.setLevel(logging.INFO)


def _shard_serve_args(args: argparse.Namespace) -> list[str]:
    """The ``serve`` flags forwarded to each spawned local shard.

    Each shard gets a *private* store root (``shard-<i>`` under the
    cache dir, appended per shard after these base flags — argparse
    keeps the last ``--cache-dir``) and the ring replicator copies
    artifacts between shards, so a failover re-route lands on a shard
    that already holds a warm replica.
    """
    forwarded = [
        "--memory-capacity",
        str(args.memory_capacity),
        "--timeout",
        str(args.timeout),
        "--workers",
        str(args.workers),
        "--max-queue",
        str(args.max_queue),
    ]
    if args.cache_dir:
        forwarded += ["--cache-dir", args.cache_dir]
    if args.no_disk_cache:
        forwarded += ["--no-disk-cache"]
    if args.executor:
        forwarded += ["--executor", args.executor]
    if args.store_max_mb is not None:
        forwarded += ["--store-max-mb", str(args.store_max_mb)]
    if args.memory_limit_mb is not None:
        forwarded += ["--memory-limit-mb", str(args.memory_limit_mb)]
    if args.poison_threshold is not None:
        forwarded += ["--poison-threshold", str(args.poison_threshold)]
    if args.scrub_interval is not None:
        forwarded += ["--scrub-interval", str(args.scrub_interval)]
    return forwarded


def _run_router(
    pool: Any,
    host: str,
    port: int,
    *,
    replicas: int,
    max_inflight: int,
    max_queue: int,
    hedge_delay: float | None = None,
) -> int:
    """Serve a router over ``pool`` in the foreground until shutdown.

    ``hedge_delay``: None = adaptive (p95 of observed forwards), 0 =
    hedging off, positive = fixed hedge delay in seconds.
    """
    from repro.server.router import Router

    router = Router(
        pool,
        replicas=replicas,
        max_inflight=max_inflight,
        max_queue=max_queue,
        hedge=hedge_delay is None or hedge_delay > 0,
        hedge_delay_s=hedge_delay if hedge_delay else None,
    )
    pool.probe_all()
    pool.start_probing()
    router.start(host, port)
    try:
        router.join()
    except KeyboardInterrupt:
        pass
    finally:
        router.stop()
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.server.shardpool import ShardPool

    if args.rolling_restart:
        # Admin mode: ask a *running* router (serve --shards) to drain
        # and respawn each of its shards in sequence, then report.
        from repro.server.client import ServerError, SliceClient

        host, port = _parse_hostport(args.rolling_restart)
        if args.drain_timeout <= 0:
            raise SystemExit("error: --drain-timeout must be positive")
        client = SliceClient.connect(
            host,
            port,
            # One shard can take up to drain-timeout to drain plus its
            # respawn and health-verify time; budget the whole roll.
            timeout=(args.drain_timeout + 60.0) * 16,
            retries=0,
        )
        try:
            result = client.request(
                "rolling_restart",
                retries=0,
                drain_timeout_s=args.drain_timeout,
            )
        except ServerError as exc:
            raise SystemExit(f"error: rolling restart failed: {exc}") from None
        finally:
            client.close()
        print(json.dumps(result, indent=2, sort_keys=True))
        return 1 if result.get("failed") else 0

    if not args.shard:
        raise SystemExit(
            "error: --shard HOST:PORT is required (or use "
            "--rolling-restart HOST:PORT against a running router)"
        )
    _setup_server_logging(args.quiet)
    if args.probe_interval <= 0:
        raise SystemExit("error: --probe-interval must be positive")
    if args.failure_threshold < 1:
        raise SystemExit("error: --failure-threshold must be >= 1")
    pool = ShardPool(
        failure_threshold=args.failure_threshold,
        probe_interval_s=args.probe_interval,
        request_timeout=args.request_timeout,
    )
    for spec in args.shard:
        shard_host, shard_port = _parse_hostport(spec)
        pool.attach(shard_host, shard_port)
    host, port = _parse_hostport(args.tcp)
    return _run_router(
        pool,
        host,
        port,
        replicas=args.replicas,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        hedge_delay=args.hedge_delay,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.cache import AnalysisCache
    from repro.server.daemon import (
        SliceServer,
        default_executor,
        serve_stdio,
        serve_tcp,
    )
    from repro.server.quarantine import Quarantine
    from repro.server.store import DiskStore

    if args.shards:
        from repro.server.shardpool import ShardPool, ShardSpawnError

        if args.shards < 1:
            raise SystemExit("error: --shards must be >= 1")
        if not args.tcp:
            raise SystemExit(
                "error: --shards needs --tcp HOST:PORT for the router "
                "frontend (shards listen on ephemeral local ports)"
            )
        if args.replicate < 1:
            raise SystemExit("error: --replicate must be >= 1")
        if args.repair_interval is not None and args.repair_interval < 0:
            raise SystemExit("error: --repair-interval must be >= 0")
        _setup_server_logging(args.quiet)
        host, port = _parse_hostport(args.tcp)
        per_shard_args = None
        repair_every = 0
        if not args.no_disk_cache:
            # Per-shard private store roots — the replication tier
            # assumes each shard owns its store; copies move over RPC,
            # not through a shared filesystem.
            base = Path(
                args.cache_dir
                or os.environ.get("REPRO_CACHE_DIR")
                or str(DEFAULT_CACHE_DIR)
            )
            per_shard_args = [
                ["--cache-dir", str(base / f"shard-{index}")]
                for index in range(args.shards)
            ]
            interval = (
                args.repair_interval
                if args.repair_interval is not None
                else 30.0
            )
            if interval:
                repair_every = max(
                    1, round(interval / args.probe_interval)
                )
        pool = ShardPool(
            probe_interval_s=args.probe_interval,
            echo_shard_logs=not args.quiet,
            respawn=not args.no_respawn,
            repair_every=repair_every,
        )
        try:
            pool.spawn_local(
                args.shards,
                _shard_serve_args(args),
                per_shard_args=per_shard_args,
            )
        except ShardSpawnError as exc:
            pool.stop()
            raise SystemExit(f"error: {exc}") from None
        if (
            per_shard_args is not None
            and args.shards > 1
            and args.replicate > 1
        ):
            pool.configure_replication(
                args.replicate, ring_replicas=args.replicas
            )
        return _run_router(
            pool,
            host,
            port,
            replicas=args.replicas,
            max_inflight=args.workers * args.shards,
            max_queue=args.max_queue * args.shards,
            hedge_delay=args.hedge_delay,
        )

    _setup_server_logging(args.quiet)

    store = None
    if not args.no_disk_cache:
        cache_dir = (
            args.cache_dir
            or os.environ.get("REPRO_CACHE_DIR")
            or str(DEFAULT_CACHE_DIR)
        )
        max_bytes = None
        if args.store_max_mb is not None:
            if args.store_max_mb <= 0:
                raise SystemExit("error: --store-max-mb must be positive")
            max_bytes = int(args.store_max_mb * 1024 * 1024)
        store = DiskStore(Path(cache_dir), max_bytes=max_bytes)
    cache = AnalysisCache(capacity=args.memory_capacity, store=store)
    timeout = args.timeout if args.timeout and args.timeout > 0 else None
    memory_limit = (
        args.memory_limit_mb
        if args.memory_limit_mb and args.memory_limit_mb > 0
        else None
    )
    quarantine = None
    if args.poison_threshold is not None:
        if args.poison_threshold < 1:
            raise SystemExit("error: --poison-threshold must be >= 1")
        quarantine = Quarantine(threshold=args.poison_threshold)
    scrub_interval = args.scrub_interval
    if scrub_interval is not None and scrub_interval <= 0:
        raise SystemExit("error: --scrub-interval must be positive")
    server = SliceServer(
        cache,
        timeout=timeout,
        workers=args.workers,
        max_queue=args.max_queue,
        executor=args.executor or default_executor(args.workers),
        memory_limit_mb=memory_limit,
        quarantine=quarantine,
        scrub_interval_s=scrub_interval,
    )
    server.prestart()
    if args.tcp:
        host, port = _parse_hostport(args.tcp)
        serve_tcp(server, host, port)
    else:
        serve_stdio(server, sys.stdin, sys.stdout)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Thin slicing for MJ programs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_slice = sub.add_parser("slice", help="compute a slice from a line")
    p_slice.add_argument("file")
    p_slice.add_argument(
        "--line",
        type=int,
        action="append",
        help="seed line; repeat for a batch (one analysis, many slices)",
    )
    p_slice.add_argument(
        "--batch-file",
        metavar="FILE",
        help="file of seed lines (one integer per line, # comments)",
    )
    p_slice.add_argument("--traditional", action="store_true")
    p_slice.add_argument("--no-stdlib", action="store_true")
    p_slice.add_argument("--context", type=int, default=0)
    p_slice.add_argument(
        "--deadline",
        type=float,
        help="give up after this many seconds (cooperative cancellation)",
    )
    p_slice.add_argument("--format", choices=("text", "json"), default="text")
    p_slice.add_argument(
        "--timings",
        action="store_true",
        help="print pipeline stage timings to stderr",
    )
    p_slice.add_argument("--server", metavar="HOST:PORT")
    p_slice.set_defaults(fn=_cmd_slice)

    p_run = sub.add_parser("run", help="run a program's main")
    p_run.add_argument("file")
    p_run.add_argument("args", nargs="*")
    p_run.set_defaults(fn=_cmd_run)

    p_explain = sub.add_parser(
        "explain", help="show governing conditionals for a line"
    )
    p_explain.add_argument("file")
    p_explain.add_argument("--line", type=int, required=True)
    p_explain.add_argument("--no-stdlib", action="store_true")
    p_explain.add_argument("--server", metavar="HOST:PORT")
    p_explain.set_defaults(fn=_cmd_explain)

    p_why = sub.add_parser(
        "why", help="shortest producer-flow path between two lines"
    )
    p_why.add_argument("file")
    p_why.add_argument("--source", type=int, required=True)
    p_why.add_argument("--sink", type=int, required=True)
    p_why.add_argument("--no-stdlib", action="store_true")
    p_why.add_argument("--server", metavar="HOST:PORT")
    p_why.set_defaults(fn=_cmd_why)

    p_chop = sub.add_parser("chop", help="statements between source and sink")
    p_chop.add_argument("file")
    p_chop.add_argument("--source", type=int, required=True)
    p_chop.add_argument("--sink", type=int, required=True)
    p_chop.add_argument("--traditional", action="store_true")
    p_chop.add_argument("--no-stdlib", action="store_true")
    p_chop.add_argument("--server", metavar="HOST:PORT")
    p_chop.set_defaults(fn=_cmd_chop)

    p_dot = sub.add_parser("dot", help="export the SDG (or a slice) as DOT")
    p_dot.add_argument("file")
    p_dot.add_argument("--line", type=int)
    p_dot.add_argument("-o", "--output")
    p_dot.add_argument("--no-stdlib", action="store_true")
    p_dot.set_defaults(fn=_cmd_dot)

    p_stats = sub.add_parser("stats", help="print analysis statistics")
    p_stats.add_argument("file")
    p_stats.add_argument("--no-stdlib", action="store_true")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.add_argument(
        "--timings",
        action="store_true",
        help="print pipeline stage timings to stderr",
    )
    p_stats.add_argument("--server", metavar="HOST:PORT")
    p_stats.set_defaults(fn=_cmd_stats)

    p_serve = sub.add_parser(
        "serve", help="run the analysis daemon (line-delimited JSON)"
    )
    p_serve.add_argument(
        "--tcp", metavar="HOST:PORT", help="listen on TCP instead of stdio"
    )
    p_serve.add_argument(
        "--cache-dir",
        help="on-disk artifact store (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-server)",
    )
    p_serve.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="keep analyses in memory only",
    )
    p_serve.add_argument("--memory-capacity", type=int, default=8)
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request budget in seconds (0 disables)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="analysis worker threads (default: 4)",
    )
    p_serve.add_argument(
        "--executor",
        choices=("thread", "process"),
        default=None,
        help="where cold analyses run: worker threads (GIL-bound) or "
        "worker processes (true multi-core; default when --workers > 1)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=32,
        help="pending requests beyond busy workers before shedding "
        "load with Overloaded (default: 32)",
    )
    p_serve.add_argument(
        "--store-max-mb",
        type=float,
        help="disk store size budget in MiB; oldest artifacts are "
        "evicted after each save",
    )
    p_serve.add_argument(
        "--memory-limit-mb",
        type=float,
        help="per-analysis RSS limit in MiB, enforced by killing the "
        "worker process and answering ResourceExceeded (0 disables; "
        "process executor only)",
    )
    p_serve.add_argument(
        "--poison-threshold",
        type=int,
        default=None,
        help="worker-killing failures of one input before it is "
        "quarantined and answered with PoisonInput (default: 3)",
    )
    p_serve.add_argument(
        "--scrub-interval",
        type=float,
        default=None,
        help="seconds between background deep-verify sweeps of the "
        "disk store; corrupt artifacts are quarantined under "
        "corrupt/ (default: no scrubber; first sweep runs at start)",
    )
    p_serve.add_argument(
        "--quiet", action="store_true", help="suppress structured logs"
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=0,
        help="spawn this many local shard daemons and serve a "
        "consistent-hash router in front of them on --tcp",
    )
    p_serve.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="seconds between shard health probes (--shards mode)",
    )
    p_serve.add_argument(
        "--replicas",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring (--shards mode)",
    )
    p_serve.add_argument(
        "--no-respawn",
        action="store_true",
        help="do not respawn locally spawned shards that die "
        "(--shards mode; default is to respawn on the same port)",
    )
    p_serve.add_argument(
        "--replicate",
        type=int,
        default=2,
        help="total copies of each artifact across the shard tier "
        "(--shards mode with a disk store; 1 disables replication; "
        "default: 2)",
    )
    p_serve.add_argument(
        "--repair-interval",
        type=float,
        default=None,
        help="seconds between anti-entropy repair passes that "
        "re-converge replicas after a shard was down (--shards mode; "
        "0 disables; default: 30)",
    )
    p_serve.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        help="seconds before a slow keyed request is hedged to its "
        "first replica (0 disables hedging; default: adaptive p95 of "
        "observed forward latency)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_route = sub.add_parser(
        "route",
        help="serve a consistent-hash router over externally managed "
        "shard daemons",
    )
    p_route.add_argument(
        "--shard",
        metavar="HOST:PORT",
        action="append",
        default=None,
        help="a running `repro serve --tcp` daemon; repeat per shard",
    )
    p_route.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default="127.0.0.1:0",
        help="router listen address (default: an ephemeral local port, "
        "reported by the structured `listening` log line)",
    )
    p_route.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        help="seconds between shard health probes (default: 1)",
    )
    p_route.add_argument(
        "--failure-threshold",
        type=int,
        default=2,
        help="consecutive failures before a shard is marked unhealthy "
        "(default: 2)",
    )
    p_route.add_argument(
        "--replicas",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring (default: 64)",
    )
    p_route.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help="concurrently forwarded requests (default: 16)",
    )
    p_route.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admitted-but-waiting requests beyond --max-inflight "
        "before shedding Overloaded (default: 64)",
    )
    p_route.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-forward transport timeout in seconds (default: 30)",
    )
    p_route.add_argument(
        "--hedge-delay",
        type=float,
        default=None,
        help="seconds before a slow keyed request is hedged to its "
        "first replica (0 disables hedging; default: adaptive p95 of "
        "observed forward latency)",
    )
    p_route.add_argument(
        "--rolling-restart",
        metavar="HOST:PORT",
        default=None,
        help="instead of serving, ask the running router at HOST:PORT "
        "to drain and respawn each of its shards in turn, print the "
        "summary, and exit (non-zero if any shard failed)",
    )
    p_route.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for each shard's in-flight requests to "
        "finish during --rolling-restart (default: 30)",
    )
    p_route.add_argument(
        "--quiet", action="store_true", help="suppress structured logs"
    )
    p_route.set_defaults(fn=_cmd_route)

    p_health = sub.add_parser(
        "health", help="query a running daemon's load and counters"
    )
    p_health.add_argument("--server", metavar="HOST:PORT", required=True)
    p_health.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p_health.set_defaults(fn=_cmd_health)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the analyzer: every input must end in a slice or a "
        "structured error, never a crash or hang",
    )
    p_fuzz.add_argument(
        "--budget",
        default="60s",
        help="campaign wall-clock budget, e.g. 60, 60s, 5m (default: 60s)",
    )
    p_fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="campaign seed; every input derives from it (default: 0)",
    )
    p_fuzz.add_argument(
        "--crash-dir",
        default="crashes",
        help="write minimized failing inputs here (default: ./crashes)",
    )
    p_fuzz.add_argument(
        "--corpus",
        help="directory of extra .mj seeds to mutate (e.g. tests/corpus); "
        "the paper suite is always included",
    )
    p_fuzz.add_argument(
        "--input-budget",
        type=float,
        default=5.0,
        help="per-input analysis budget in seconds (default: 5)",
    )
    p_fuzz.add_argument(
        "--max-inputs",
        type=int,
        help="stop after this many inputs even if time remains",
    )
    p_fuzz.add_argument("--format", choices=("text", "json"), default="text")
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
