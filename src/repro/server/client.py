"""Resilient Python client for the slice server.

Two transports behind one API:

* :meth:`SliceClient.connect` — TCP to a running ``repro serve --tcp``;
* :meth:`SliceClient.spawn` — fork a private stdio daemon as a child
  process (the editor-integration shape: one daemon per tool session).

Requests are synchronous: send one line, read one line.  An error
response raises :class:`ServerError` carrying the structured type.

Resilience:

* every transport failure (broken pipe, reset, timeout, dead child)
  surfaces as a structured :class:`ServerError` — ``"Disconnected"``
  or ``"Timeout"`` — never a raw ``OSError``;
* :meth:`request` retries ``Overloaded`` and ``Disconnected`` failures
  with jittered exponential backoff (``retries`` per call or per
  client), reconnecting the TCP transport as needed.  ``shutdown`` is
  never retried — it is not idempotent (a retry after an ambiguous
  failure could kill a daemon that *did* receive the first attempt and
  already answered someone else's traffic);
* per-request ``deadline`` seconds are forwarded to the server, which
  cancels the analysis cooperatively when they pass.
"""

from __future__ import annotations

import random
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Sequence

from repro.server.protocol import ProtocolError, decode_message, encode_message

#: Error types that are safe to retry: the daemon either never accepted
#: the request (Overloaded is rejected before any work starts) or the
#: connection died (idempotent queries can simply be re-asked).
RETRYABLE = frozenset({"Overloaded", "Disconnected"})

#: Methods that must never be retried automatically.
NON_IDEMPOTENT = frozenset({"shutdown"})

_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0


class ServerError(RuntimeError):
    """An error response from the daemon (or a transport failure).

    ``endpoint`` names the server the failure came from (``host:port``,
    or ``spawn:<pid>`` for a private child daemon).  In router mode the
    router stamps relayed shard errors with the *shard's* address, so a
    failure deep in the tier is attributable from the client side.
    ``answered`` is true when the server sent the error as its response
    to the request (the connection is intact), false for a transport
    failure.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        endpoint: str | None = None,
        answered: bool = False,
    ) -> None:
        label = f"{error_type}: {message}"
        if endpoint:
            label += f" [from {endpoint}]"
        super().__init__(label)
        self.error_type = error_type
        self.message = message
        self.endpoint = endpoint
        self.answered = answered


def _backoff_delay(attempt: int) -> float:
    """Jittered exponential backoff: attempt 0 → ~50 ms, doubling, capped."""
    delay = min(_BACKOFF_BASE_S * (2**attempt), _BACKOFF_CAP_S)
    return delay * (0.5 + random.random())


class SliceClient:
    def __init__(
        self,
        send_line: Callable[[str], None],
        recv_line: Callable[[], str],
        close: Callable[[], None],
        open_transport: (
            Callable[[], tuple[Callable[[str], None], Callable[[], str], Callable[[], None]]]
            | None
        ) = None,
        retries: int = 2,
        endpoint: str | None = None,
    ) -> None:
        self._send_line = send_line
        self._recv_line = recv_line
        self._close = close
        # Re-dialer for reconnect-on-retry; None for transports that
        # cannot be re-established (a spawned child stays dead).
        self._open_transport = open_transport
        self.retries = retries
        #: Where requests go, for error attribution (``host:port`` or
        #: ``spawn:<pid>``); every :class:`ServerError` this client
        #: raises carries it unless the server named a deeper endpoint.
        self.endpoint = endpoint
        self._next_id = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float = 30.0,
        retries: int = 2,
    ) -> "SliceClient":
        def open_transport():
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.settimeout(timeout)
            reader = sock.makefile("r", encoding="utf-8", newline="\n")
            writer = sock.makefile("w", encoding="utf-8", newline="\n")

            def send(line: str) -> None:
                writer.write(line + "\n")
                writer.flush()

            def close() -> None:
                reader.close()
                writer.close()
                sock.close()

            return send, lambda: reader.readline(), close

        send, recv, close = open_transport()
        return cls(
            send,
            recv,
            close,
            open_transport=open_transport,
            retries=retries,
            endpoint=f"{host}:{port}",
        )

    @classmethod
    def spawn(
        cls,
        extra_args: Sequence[str] = (),
        python: str = sys.executable,
        retries: int = 2,
    ) -> "SliceClient":
        """Start ``python -m repro.cli serve`` on pipes and attach to it."""
        process = subprocess.Popen(
            [python, "-m", "repro.cli", "serve", *extra_args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        assert process.stdin is not None and process.stdout is not None

        def send(line: str) -> None:
            # A dead child surfaces as BrokenPipeError (or ValueError on
            # a closed pipe object); both must become structured errors,
            # not leak to the caller as raw exceptions.
            try:
                process.stdin.write(line + "\n")
                process.stdin.flush()
            except (BrokenPipeError, ValueError, OSError) as exc:
                raise ServerError(
                    "Disconnected",
                    f"server process is gone (exit code {process.poll()}): {exc}",
                ) from exc

        def recv() -> str:
            try:
                return process.stdout.readline()
            except (ValueError, OSError) as exc:
                raise ServerError(
                    "Disconnected",
                    f"server process is gone (exit code {process.poll()}): {exc}",
                ) from exc

        def close() -> None:
            try:
                process.stdin.close()
            except (OSError, ValueError):
                pass
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

        client = cls(
            send, recv, close, retries=retries, endpoint=f"spawn:{process.pid}"
        )
        client.process = process
        return client

    # ------------------------------------------------------------------
    # Core request/response
    # ------------------------------------------------------------------

    def request(
        self,
        method: str,
        *,
        deadline: float | None = None,
        retries: int | None = None,
        **params: Any,
    ) -> dict[str, Any]:
        """Send one request; retry retryable failures with backoff.

        ``deadline`` (seconds) is forwarded to the server, which cancels
        the analysis cooperatively when it passes.  ``retries`` overrides
        the client-wide budget for this call; non-idempotent methods
        (``shutdown``) get exactly one attempt regardless.
        """
        if self._closed:
            raise RuntimeError("client is closed")
        if deadline is not None:
            params["deadline"] = deadline
        budget = self.retries if retries is None else retries
        attempts = 1 if method in NON_IDEMPOTENT else budget + 1
        last: ServerError | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(_backoff_delay(attempt - 1))
                if last is not None and last.error_type == "Disconnected":
                    if not self._reconnect_transport():
                        break
            try:
                return self._request_once(method, params)
            except ServerError as exc:
                if exc.error_type not in RETRYABLE or attempt + 1 >= attempts:
                    raise
                last = exc
        assert last is not None
        raise last

    def _request_once(self, method: str, params: dict[str, Any]) -> dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        message = encode_message(
            {"id": request_id, "method": method, "params": params}
        )
        try:
            self._send_line(message)
            line = self._recv_line()
        except ServerError as exc:
            if exc.endpoint is None:
                raise ServerError(
                    exc.error_type, exc.message, endpoint=self.endpoint
                ) from exc
            raise
        except (socket.timeout, TimeoutError) as exc:
            raise ServerError(
                "Timeout",
                f"no response from server: {exc}",
                endpoint=self.endpoint,
            ) from exc
        except (ConnectionError, BrokenPipeError, ValueError, OSError) as exc:
            raise ServerError(
                "Disconnected",
                f"transport failure: {exc}",
                endpoint=self.endpoint,
            ) from exc
        if not line:
            raise ServerError(
                "Disconnected",
                "server closed the connection",
                endpoint=self.endpoint,
            )
        try:
            response = decode_message(line)
        except ProtocolError as exc:
            raise ServerError(
                "Protocol", str(exc), endpoint=self.endpoint
            ) from exc
        if response.get("id") != request_id:
            raise ServerError(
                "Protocol",
                f"response id {response.get('id')!r} != request id {request_id}",
                endpoint=self.endpoint,
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            # A routed error may name the shard it came from; prefer
            # that deeper endpoint over this client's own target.
            raise ServerError(
                error.get("type", "Unknown"),
                error.get("message", ""),
                endpoint=error.get("endpoint") or self.endpoint,
                answered=True,
            )
        return response["result"]

    def _reconnect_transport(self) -> bool:
        """Re-dial after a disconnect; False when the transport can't be."""
        if self._open_transport is None:
            return False
        try:
            self._close()
        except (OSError, ValueError):
            pass
        try:
            self._send_line, self._recv_line, self._close = self._open_transport()
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def health(self) -> dict[str, Any]:
        return self.request("health")

    def slice(self, source: str, line: int, **params: Any) -> dict[str, Any]:
        return self.request("slice", source=source, line=line, **params)

    def slice_program(self, program: str, line: int, **params: Any) -> dict[str, Any]:
        return self.request("slice", program=program, line=line, **params)

    def slice_batch(
        self,
        *,
        source: str | None = None,
        program: str | None = None,
        lines: Sequence[int] | None = None,
        items: Sequence[dict[str, Any]] | None = None,
        **params: Any,
    ) -> dict[str, Any]:
        """Many seeds in one round trip; see the ``slice_batch`` RPC."""
        if source is not None:
            params["source"] = source
        if program is not None:
            params["program"] = program
        if lines is not None:
            params["lines"] = list(lines)
        if items is not None:
            params["items"] = list(items)
        return self.request("slice_batch", **params)

    def explain(self, source: str, line: int, **params: Any) -> dict[str, Any]:
        return self.request("explain", source=source, line=line, **params)

    def why(
        self, source: str, source_line: int, sink_line: int, **params: Any
    ) -> dict[str, Any]:
        return self.request(
            "why",
            source=source,
            source_line=source_line,
            sink_line=sink_line,
            **params,
        )

    def chop(
        self, source: str, source_line: int, sink_line: int, **params: Any
    ) -> dict[str, Any]:
        return self.request(
            "chop",
            source=source,
            source_line=source_line,
            sink_line=sink_line,
            **params,
        )

    def stats(self, **params: Any) -> dict[str, Any]:
        return self.request("stats", **params)

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._close()

    def __enter__(self) -> "SliceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
