"""Shard lifecycle for the sharded serving tier.

A *shard* is one ordinary ``repro serve --tcp`` daemon — admission
control, quarantine, circuit breaker, and the two-tier cache all stay
per-shard, exactly as they are in a single-daemon deployment.  This
module owns everything the router needs to treat N of them as one
service:

* **Attachment** — :meth:`ShardPool.attach` registers an externally
  managed daemon by address; :meth:`ShardPool.spawn_local` forks local
  shard processes on ephemeral ports (reading the bound port back from
  the ``listening`` line the daemon prints on stdout) so ``repro serve
  --shards N`` starts a whole tier with one command.  Spawned shards
  write their own logs to the stderr they inherit; each request line
  names its shard in ``endpoint``.
* **Health** — a background probe thread calls the existing ``health``
  RPC on every shard each interval.  A shard is marked ``unhealthy``
  after ``failure_threshold`` consecutive failures — immediately when
  the failure proves nothing is listening (connection refused, or a
  spawned process that has exited).  A later successful probe marks it
  healthy again; forwarding failures and successes feed the same
  counters, so a dying shard is usually demoted by live traffic before
  the next probe tick.
* **Connection reuse** — each shard keeps a small free-list of
  :class:`~repro.server.client.SliceClient` connections; the router
  borrows one per forwarded request and returns it once the shard has
  answered (a structured error included), so warm traffic pays no
  re-dial.  Transport failures discard the connection.
* **Draining** — :meth:`ShardPool.stop` marks every shard draining (no
  new requests are routed to it) and stops each *spawned* shard with
  :meth:`Shard.stop_process`: the ``shutdown`` RPC, a wait, then a
  kill for any that linger.  :meth:`ShardPool.restart_shard` stops a
  shard the same way.  Externally attached shards are left running —
  they may be serving other routers.
* **Respawn** — a *spawned* shard whose process has exited is restarted
  by the probe thread on the **same port** (the consistent-hash ring is
  built from addresses once, so the reborn shard slots straight back
  into its ring position; the daemon's listener sets
  ``SO_REUSEADDR``, so the rebind wins over ``TIME_WAIT``).  Between
  death and respawn the ring's failover answers that shard's keys from
  its neighbors — zero failed requests, then the tier heals itself.
  The probe thread's heal and a rolling restart share one step,
  :meth:`ShardPool._respawn`: spawn on the same port, count the
  respawn, re-push the replication config, probe.  Exponential backoff
  caps the churn when a shard dies at startup every time; externally
  attached shards are never respawned (their lifecycle belongs to
  whoever started them).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time
from typing import Any

from repro.server.client import ServerError, SliceClient

#: Consecutive probe/forward failures before a shard is demoted.
DEFAULT_FAILURE_THRESHOLD = 2

#: Seconds between health-probe rounds.
DEFAULT_PROBE_INTERVAL_S = 1.0

#: Per-probe RPC timeout — probes must never wedge the probe thread.
PROBE_TIMEOUT_S = 2.0

#: How long to wait for a spawned shard to report its bound port.
SPAWN_TIMEOUT_S = 30.0

#: Base delay before re-respawning a shard that died again; doubles per
#: consecutive failed respawn (a shard that cannot hold its port or
#: crashes during startup must not be restarted in a hot loop), with
#: 0.5–1.5x jitter (so N crash-looping shards don't respawn in
#: lockstep) and a hard cap.
RESPAWN_BACKOFF_S = 0.5
RESPAWN_BACKOFF_CAP_S = 30.0

#: A respawned shard that stays up this long is considered stable: its
#: consecutive-respawn count resets, so health distinguishes a
#: crash-*looping* shard (count climbing) from one that bounced once.
RESPAWN_STABLE_S = 10.0


def _respawn_backoff(failures: int) -> float:
    delay = min(
        RESPAWN_BACKOFF_S * (2 ** min(failures, 6)), RESPAWN_BACKOFF_CAP_S
    )
    return delay * (0.5 + random.random())

HEALTHY = "healthy"
UNHEALTHY = "unhealthy"
DRAINING = "draining"


class ShardSpawnError(RuntimeError):
    """A locally spawned shard died before reporting its address."""


class Shard:
    """One daemon endpoint: state, counters, and pooled connections."""

    def __init__(
        self,
        host: str,
        port: int,
        process: subprocess.Popen | None = None,
        request_timeout: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.address = f"{host}:{port}"
        self.process = process
        self.request_timeout = request_timeout
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.forwarded_total = 0
        self.failed_total = 0
        self.last_probe: dict[str, Any] | None = None
        self.last_error: str | None = None
        #: Times this shard's process was resurrected, and the backoff
        #: bookkeeping for the next attempt.
        self.respawns = 0
        self.respawn_failures = 0
        self.next_respawn_at = 0.0
        #: Crash-loop visibility: wall time of the last respawn and how
        #: many respawns happened without a stable stretch between them
        #: (reset once the shard stays healthy RESPAWN_STABLE_S).
        self.last_respawn_ts: float | None = None
        self.consecutive_respawns = 0
        self._respawn_monotonic: float | None = None
        #: Extra ``serve`` CLI args this shard was spawned with; a
        #: respawn must reuse them verbatim (per-shard stores mean the
        #: args differ shard to shard — same port, same store root).
        self.serve_args: list[str] = []
        self._lock = threading.Lock()
        self._free: list[SliceClient] = []

    # -- connections ---------------------------------------------------

    def _dial(self, timeout: float | None = None) -> SliceClient:
        try:
            return SliceClient.connect(
                self.host,
                self.port,
                timeout=timeout if timeout is not None else self.request_timeout,
                retries=0,
            )
        except OSError as exc:
            raise ServerError(
                "Disconnected",
                f"cannot connect to shard: {exc}",
                endpoint=self.address,
            ) from exc

    def call(self, method: str, params: dict[str, Any]) -> dict[str, Any]:
        """One forwarded request on a pooled connection.

        The borrowed client has ``retries=0``: retry policy belongs to
        the router (which re-routes via the ring), not to the per-shard
        transport — a second attempt against a dead shard would only
        add latency before the failover.
        """
        with self._lock:
            client = self._free.pop() if self._free else None
        if client is None:
            client = self._dial()
        reusable = False
        try:
            result = client.request(method, **params)
            reusable = True
            return result
        except ServerError as exc:
            # A structured error the shard answered leaves the
            # connection in step; a transport failure makes it suspect
            # (a Timeout may leave an unread response in the pipe).
            reusable = exc.answered
            raise
        finally:
            if reusable:
                with self._lock:
                    self._free.append(client)
            else:
                client.close()

    def probe(self) -> dict[str, Any]:
        """One ``health`` round trip on a fresh, short-timeout dial."""
        client = self._dial(timeout=PROBE_TIMEOUT_S)
        try:
            return client.health()
        finally:
            client.close()

    def close_connections(self) -> None:
        with self._lock:
            free, self._free = self._free, []
        for client in free:
            try:
                client.close()
            except (OSError, ValueError):
                pass

    def process_exited(self) -> bool:
        return self.process is not None and self.process.poll() is not None

    def stop_process(self, timeout_s: float) -> None:
        """Stop a spawned shard: the ``shutdown`` RPC, up to
        ``timeout_s`` for the process to exit, then a kill.  Drops the
        pooled connections; an attached or exited shard is left as is."""
        self.close_connections()
        if self.process is None or self.process.poll() is not None:
            return
        try:
            client = self._dial(timeout=PROBE_TIMEOUT_S)
            try:
                client.shutdown()
            finally:
                client.close()
        except ServerError:
            pass
        try:
            self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()

    def snapshot(self) -> dict[str, Any]:
        """Cached state for the router's aggregated ``health`` view —
        never performs I/O, so the aggregate stays fast under failure."""
        with self._lock:
            payload: dict[str, Any] = {
                "state": self.state,
                "consecutive_failures": self.consecutive_failures,
                "forwarded_total": self.forwarded_total,
                "failed_total": self.failed_total,
                "spawned": self.process is not None,
                "respawns": self.respawns,
                "consecutive_respawns": self.consecutive_respawns,
                "last_respawn_ts": self.last_respawn_ts,
                "last_probe": self.last_probe,
            }
            if self.process is not None:
                payload["pid"] = self.process.pid
            if self.last_error is not None:
                payload["last_error"] = self.last_error
        return payload


class ShardPool:
    """The router's view of every shard: membership, health, draining."""

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        request_timeout: float = 30.0,
        repair_every: int = 0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.probe_interval_s = probe_interval_s
        self.request_timeout = request_timeout
        #: Trigger an anti-entropy ``repair`` pass on every shard each
        #: ``repair_every`` probe rounds (0 = never).  Only meaningful
        #: after :meth:`configure_replication`.
        self.repair_every = repair_every
        self._replication: dict[str, Any] | None = None
        self.respawns_total = 0
        self._shards: dict[str, Shard] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        self._spawn_python: str = sys.executable
        self._spawn_serve_args: list[str] = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def attach(self, host: str, port: int) -> Shard:
        """Register an externally managed daemon as a shard."""
        shard = Shard(host, port, request_timeout=self.request_timeout)
        with self._lock:
            self._shards[shard.address] = shard
        return shard

    def spawn_local(
        self,
        count: int,
        serve_args: list[str] | None = None,
        python: str = sys.executable,
        per_shard_args: list[list[str]] | None = None,
    ) -> list[Shard]:
        """Fork ``count`` local shard daemons on ephemeral ports.

        Each shard is ``python -m repro.cli serve --tcp 127.0.0.1:0``
        plus ``serve_args`` plus its own ``per_shard_args[i]`` (how the
        tier gives each shard a private store root); the bound port is
        read back from the ``listening`` line the daemon prints on
        stdout.  The shard inherits this process's stderr and writes
        its logs there itself.  Each shard remembers its full arg list
        so respawns reproduce it exactly.
        """
        self._spawn_python = python
        self._spawn_serve_args = list(serve_args or [])
        if per_shard_args is not None and len(per_shard_args) != count:
            raise ValueError("per_shard_args must have one entry per shard")
        spawned = []
        for index in range(count):
            extra = self._spawn_serve_args + (
                list(per_shard_args[index]) if per_shard_args else []
            )
            process, port = self._spawn_process("127.0.0.1:0", extra)
            shard = Shard(
                "127.0.0.1",
                port,
                process=process,
                request_timeout=self.request_timeout,
            )
            shard.serve_args = extra
            with self._lock:
                self._shards[shard.address] = shard
            spawned.append(shard)
        return spawned

    def _spawn_process(
        self, bind: str, serve_args: list[str] | None = None
    ) -> tuple[subprocess.Popen, int]:
        """Fork one shard daemon bound to ``bind`` and await its port."""
        args = self._spawn_serve_args if serve_args is None else serve_args
        process = subprocess.Popen(
            [self._spawn_python, "-m", "repro.cli", "serve", "--tcp", bind]
            + args,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            port = self._await_listening(process)
        except Exception:
            process.kill()
            process.wait()
            raise
        finally:
            # The port is all a shard prints on stdout.
            process.stdout.close()
        return process, port

    @staticmethod
    def _await_listening(process: subprocess.Popen) -> int:
        assert process.stdout is not None
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        collected: list[str] = []
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                raise ShardSpawnError(
                    "shard exited before listening "
                    f"(exit code {process.poll()}; its stderr has the "
                    f"cause): {''.join(collected)[-500:]}"
                )
            collected.append(line)
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and event.get("event") == "listening":
                return int(event["port"])
        raise ShardSpawnError("shard did not report a port in time")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def shard(self, address: str) -> Shard:
        with self._lock:
            return self._shards[address]

    def addresses(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    def healthy_addresses(self) -> list[str]:
        return sorted(a for a, s in self.states().items() if s == HEALTHY)

    def states(self) -> dict[str, str]:
        """Each shard's state — the router's per-request view, without
        building full snapshots."""
        with self._lock:
            return {
                address: shard.state for address, shard in self._shards.items()
            }

    def snapshot(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            shards = dict(self._shards)
        return {address: shard.snapshot() for address, shard in sorted(shards.items())}

    # ------------------------------------------------------------------
    # Health accounting (fed by probes *and* by forwarding outcomes)
    # ------------------------------------------------------------------

    def note_success(self, address: str, probe: dict[str, Any] | None = None) -> None:
        shard = self.shard(address)
        with shard._lock:
            shard.consecutive_failures = 0
            shard.last_error = None
            if probe is not None:
                shard.last_probe = probe
            if (
                shard.consecutive_respawns
                and shard._respawn_monotonic is not None
                and time.monotonic() - shard._respawn_monotonic
                >= RESPAWN_STABLE_S
            ):
                # The reborn process has stayed up long enough to count
                # as recovered rather than mid-crash-loop.
                shard.consecutive_respawns = 0
            if shard.state != DRAINING:
                shard.state = HEALTHY

    def note_failure(
        self, address: str, error: str, definitely_down: bool = False
    ) -> None:
        """One failed probe or forward.  ``definitely_down`` skips the
        consecutive-failure grace: a refused connection or an exited
        process is not a blip worth waiting out."""
        shard = self.shard(address)
        with shard._lock:
            shard.consecutive_failures += 1
            shard.last_error = error
            if shard.state == DRAINING:
                return
            if definitely_down or shard.consecutive_failures >= self.failure_threshold:
                shard.state = UNHEALTHY

    def _probe_one(self, shard: Shard) -> None:
        if shard.state == DRAINING:
            return
        if shard.process_exited():
            self.note_failure(
                shard.address,
                f"shard process exited with code {shard.process.poll()}",
                definitely_down=True,
            )
            if not self._stop.is_set():
                self._try_respawn(shard)
            return
        try:
            payload = shard.probe()
        except ServerError as exc:
            refused = isinstance(exc.__cause__, ConnectionRefusedError)
            self.note_failure(
                shard.address, str(exc), definitely_down=refused
            )
            return
        if payload.get("shutting_down"):
            self.note_failure(
                shard.address, "shard is shutting down", definitely_down=True
            )
            return
        self.note_success(shard.address, probe=payload)

    def probe_all(self) -> None:
        """One synchronous probe round (the probe thread's body; also
        handy for tests and for a deterministic first round)."""
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            self._probe_one(shard)

    def start_probing(self) -> None:
        if self._probe_thread is not None:
            return
        self._probe_thread = threading.Thread(
            target=self._probe_loop, name="repro-shard-probe", daemon=True
        )
        self._probe_thread.start()

    def _probe_loop(self) -> None:
        rounds = 0
        while not self._stop.wait(self.probe_interval_s):
            self.probe_all()
            rounds += 1
            if self.repair_every and rounds % self.repair_every == 0:
                self.trigger_repair()

    def _try_respawn(self, shard: Shard) -> None:
        """Resurrect a dead spawned shard on its original port.

        Runs on the probe thread.  A failed spawn backs off
        exponentially and leaves the shard demoted; the next probe
        round tries again.
        """
        now = time.monotonic()
        with shard._lock:
            if shard.process is None or now < shard.next_respawn_at:
                return
        try:
            self._respawn(shard, answer_within_s=0.0)
        except ShardSpawnError as exc:
            with shard._lock:
                shard.respawn_failures += 1
                shard.next_respawn_at = now + _respawn_backoff(
                    shard.respawn_failures
                )
                shard.last_error = f"respawn failed: {exc}"

    def _respawn(
        self, shard: Shard, answer_within_s: float
    ) -> dict[str, Any] | None:
        """Spawn ``shard`` again on its own port with its own args.

        The one respawn step of the probe thread's heal and of
        :meth:`restart_shard`.  The shard keeps its ring identity —
        same host:port, same :class:`Shard` object — so no ring rebuild
        and no key reshuffle; only the process and its connections are
        new.  The reborn shard gets the tier's replication config before
        any traffic lands on it, then is probed until it answers (for at
        most ``answer_within_s``): an answer promotes it to healthy and
        is returned; silence demotes it and returns None.  Raises
        :class:`ShardSpawnError` if the process never reports its port.
        """
        now = time.monotonic()
        shard.close_connections()
        process, _port = self._spawn_process(shard.address, shard.serve_args)
        with shard._lock:
            shard.process = process
            shard.respawns += 1
            shard.consecutive_respawns += 1
            shard.last_respawn_ts = time.time()
            shard._respawn_monotonic = time.monotonic()
            shard.respawn_failures = 0
            shard.next_respawn_at = now + RESPAWN_BACKOFF_S
        with self._lock:
            self.respawns_total += 1
        self._push_replication(shard)
        deadline = time.monotonic() + answer_within_s
        while True:
            try:
                payload = shard.probe()
                break
            except ServerError as exc:
                if time.monotonic() >= deadline:
                    with shard._lock:
                        shard.state = UNHEALTHY
                        shard.consecutive_failures += 1
                        shard.last_error = str(exc)
                    return None
                time.sleep(0.1)
        with shard._lock:
            # A restarted shard is promoted out of its drain here too.
            shard.state = HEALTHY
            shard.consecutive_failures = 0
            shard.last_probe = payload
            shard.last_error = None
        return payload

    # ------------------------------------------------------------------
    # Replication config (pushed, because shard ports are ephemeral)
    # ------------------------------------------------------------------

    def configure_replication(self, factor: int) -> int:
        """Push the replication topology to every shard.

        Runs after the whole tier is listening: the peer list is the
        final address set, clamped ``factor`` total copies per key.
        Stored so respawns and rolling restarts re-push it to reborn
        shards.  Returns how many shards accepted the config.
        """
        with self._lock:
            addresses = sorted(self._shards)
        factor = max(1, min(int(factor), len(addresses)))
        self._replication = {"peers": addresses, "factor": factor}
        accepted = 0
        for address in addresses:
            if self._push_replication(self.shard(address)):
                accepted += 1
        return accepted

    def _push_replication(self, shard: Shard) -> bool:
        config = self._replication
        if config is None:
            return False
        try:
            shard.call(
                "replicate_config",
                {"self_address": shard.address, **config},
            )
            return True
        except ServerError as exc:
            with shard._lock:
                shard.last_error = f"replicate_config failed: {exc}"
            return False

    def trigger_repair(self) -> None:
        """Kick a background anti-entropy pass on every healthy shard
        (the probe loop's repair cadence; also handy for drills)."""
        if self._replication is None:
            return
        for address in self.healthy_addresses():
            try:
                self.shard(address).call("repair", {})
            except ServerError:
                pass

    # ------------------------------------------------------------------
    # Drills and draining
    # ------------------------------------------------------------------

    def restart_shard(
        self, address: str, drain_timeout_s: float = 30.0
    ) -> dict[str, Any]:
        """Zero-downtime restart of one spawned shard.

        Drain (the router stops routing new work here) → wait for
        in-flight requests to finish → :meth:`Shard.stop_process` →
        :meth:`_respawn` on the **original port** with the original
        args (same ring slot, same store root).  Raises
        :class:`ShardSpawnError` if the reborn shard never answers; the
        shard is left demoted so the probe thread's normal heal path
        owns it from there.
        """
        shard = self.shard(address)
        if shard.process is None:
            raise ValueError(f"{address} is externally managed; not restarting")
        started = time.monotonic()
        with shard._lock:
            shard.state = DRAINING
        try:
            # In-flight work finishes; nothing new is routed to a
            # draining shard, so busy+queued can only go down.
            deadline = time.monotonic() + drain_timeout_s
            while time.monotonic() < deadline:
                try:
                    payload = shard.probe()
                except ServerError:
                    break
                if not payload.get("busy") and not payload.get("queued"):
                    break
                time.sleep(0.05)
            shard.stop_process(drain_timeout_s)
            answer = self._respawn(shard, answer_within_s=drain_timeout_s)
        except Exception:
            # Leave the shard demoted (not draining) so probes resume
            # respawn attempts through the normal heal path.
            with shard._lock:
                shard.state = UNHEALTHY
            raise
        if answer is None:
            raise ShardSpawnError(
                f"restarted shard {address} never answered health: "
                f"{shard.last_error}"
            )
        return {
            "address": address,
            "pid": shard.process.pid,
            "duration_s": round(time.monotonic() - started, 3),
        }

    def kill_shard(self, address: str) -> bool:
        """Hard-kill a *spawned* shard (the chaos drill's hammer).
        Returns False for externally attached shards."""
        shard = self.shard(address)
        if shard.process is None:
            return False
        shard.process.kill()
        shard.process.wait()
        return True

    def stop(self, drain_timeout_s: float = 5.0) -> None:
        """Drain the tier: stop probing, stop routing, stop spawned shards."""
        self._stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=drain_timeout_s)
            self._probe_thread = None
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            with shard._lock:
                shard.state = DRAINING
        for shard in shards:
            shard.stop_process(drain_timeout_s)
