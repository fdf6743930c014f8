"""The request log: one JSON line per request, written off the request
thread.

Formatting a record and writing it to stderr costs a ``json.dumps`` and
a ``write`` syscall; on the request thread both land on the latency of
every answer.  :class:`RequestLog` moves them to one writer thread:

* :meth:`RequestLog.append` puts the record dict into a bounded buffer
  and returns.  When the buffer is full the record is dropped and
  counted (``log_dropped`` in ``health``/``stats``) — a stalled stderr
  costs log lines, never latency or memory.
* The writer wakes every :data:`FLUSH_INTERVAL_S` on a timer, not once
  per record (a per-record wake would put a cross-CPU hand-off back on
  the request path), formats everything buffered and writes it in
  chunks of whole lines of at most ``PIPE_BUF`` bytes.  A pipe write of
  that size is atomic, so the router and its spawned shards, which all
  write to one inherited stderr, never interleave mid-line.
* :meth:`RequestLog.close` stops the writer and flushes what is left.

A log without a stream (``--quiet``, or an in-process server nobody
configured) keeps nothing and starts no thread.
"""

from __future__ import annotations

import json
import select
import threading
from typing import Any, TextIO

#: Longest wait between a record's ``append`` and its write.
FLUSH_INTERVAL_S = 0.05

#: Records buffered between two flushes before new ones are dropped.
DEFAULT_CAPACITY = 4096

#: The largest write a pipe keeps whole against concurrent writers.
PIPE_BUF = getattr(select, "PIPE_BUF", 512)


class RequestLog:
    """A bounded buffer of log records drained by one writer thread."""

    def __init__(
        self,
        stream: TextIO | None,
        capacity: int = DEFAULT_CAPACITY,
        interval_s: float = FLUSH_INTERVAL_S,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.stream = stream
        self.capacity = capacity
        self.interval_s = interval_s
        self.dropped = 0
        self._records: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if stream is not None:
            self._thread = threading.Thread(
                target=self._run, name="repro-log", daemon=True
            )
            self._thread.start()

    def append(self, record: dict[str, Any]) -> None:
        """Buffer one record for the writer; drop and count it if the
        buffer is full."""
        if self.stream is None:
            return
        with self._lock:
            if len(self._records) >= self.capacity:
                self.dropped += 1
                return
            self._records.append(record)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.flush()

    def flush(self) -> None:
        """Format and write every buffered record, whole lines at most
        ``PIPE_BUF`` bytes to a write (a longer line goes alone)."""
        with self._lock:
            records, self._records = self._records, []
        chunk: list[str] = []
        size = 0
        for record in records:
            # json.dumps escapes non-ASCII, so characters are bytes.
            line = json.dumps(record, sort_keys=True) + "\n"
            if chunk and size + len(line) > PIPE_BUF:
                self._write("".join(chunk))
                chunk, size = [], 0
            chunk.append(line)
            size += len(line)
        if chunk:
            self._write("".join(chunk))

    def _write(self, text: str) -> None:
        try:
            self.stream.write(text)
            self.stream.flush()
        except (OSError, ValueError):
            # A closed or broken stderr must not take serving down.
            pass

    def close(self) -> None:
        """Stop the writer and flush what is still buffered."""
        self._stop.set()
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join()
        if self.stream is not None:
            self.flush()
