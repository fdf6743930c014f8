"""Closed-loop load from one process: each connection sends its next
request only after the previous answer arrived."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.server.client import ServerError, SliceClient
from repro.server.protocol import encode_message

from perfbench.corpus import Corpus, Request


@dataclass
class Sample:
    request: Request
    ms: float
    origin: str | None
    #: Canonical encoding of the result minus ``origin`` (None on error).
    body: str | None
    error: str | None = None


def send(client: SliceClient, corpus: Corpus, request: Request) -> Sample:
    """One timed request; every failure becomes a failed sample."""
    params = corpus.params(request)
    start = time.perf_counter()
    try:
        result = client.request("slice", **params)
    except ServerError as exc:
        elapsed = (time.perf_counter() - start) * 1000
        return Sample(request, elapsed, None, None, f"{exc.error_type}: {exc.message}")
    elapsed = (time.perf_counter() - start) * 1000
    origin = result.pop("origin", None)
    return Sample(request, elapsed, origin, encode_message(result))


class Feed:
    """A shared request sequence handed out in order to every connection."""

    def __init__(self, source: Iterator[Request]) -> None:
        self._source = source
        self._lock = threading.Lock()

    def next(self) -> Request | None:
        with self._lock:
            return next(self._source, None)


def closed_loop(
    connect: Callable[[], SliceClient],
    corpus: Corpus,
    feed: Feed,
    connections: int,
    seconds: float,
    tracer=None,
) -> tuple[list[Sample], float]:
    """Drive ``connections`` closed loops until ``seconds`` pass or the
    feed runs dry; returns the samples and the wall time measured.  With
    a ``tracer`` every request is recorded as a root span."""
    samples: list[Sample] = []
    lock = threading.Lock()
    clients = [connect() for _ in range(connections)]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(client: SliceClient) -> None:
        local = []
        while time.perf_counter() < deadline:
            request = feed.next()
            if request is None:
                break
            if tracer is None:
                sample = send(client, corpus, request)
            else:
                with tracer.request(request.role) as span:
                    sample = send(client, corpus, request)
                    span["origin"] = sample.origin
            local.append(sample)
        with lock:
            samples.extend(local)

    threads = [
        threading.Thread(target=loop, args=(client,), daemon=True)
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for client in clients:
        client.close()
    return samples, wall
