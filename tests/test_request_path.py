"""The warm request path: hits answered on the connection thread, a
one-pass slice payload, one cache key per request, and a request log
written off the request thread."""

from __future__ import annotations

import io
import json
import sys
import threading
import time
from pathlib import Path

import repro.server.cache as cache_module
from repro import AnalyzeOptions
from repro.artifact import ArtifactView
from repro.artifact.format import pack_sections, parse_sections
from repro.lang.source import marker_line
from repro.server.cache import AnalysisCache, CacheEntry, cache_key
from repro.server.faults import FaultPlan
from repro.server.protocol import slice_payload
from repro.server.requestlog import PIPE_BUF, RequestLog
from repro.server.store import DiskStore
from repro.slicing.flatslice import flat_slicer
from repro.suite.loader import load_source
from tests.conftest import make_server

SOURCE = load_source("figure2")
SEED_LINE = marker_line(SOURCE, "tag", "seed")
FLOWING = """class Main {
  static void main(String[] args) {
    int a = 1;
    int b = a + 1;
    if (b > 1) {
      print(b);
    }
  }
}
"""


def request_line(method: str, request_id: int = 1, **params) -> str:
    return json.dumps({"id": request_id, "method": method, "params": params})


def rpc(server, method: str, **params) -> dict:
    return json.loads(server.handle_line(request_line(method, **params)))


def wait_until(predicate, timeout_s: float) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestInlineHits:
    def test_warm_hit_answered_while_the_only_worker_is_busy(self):
        """With one worker, no queue and a cold analysis holding the
        worker, a warm slice is answered on the calling thread instead
        of being shed as Overloaded."""
        plan = FaultPlan()
        server = make_server(
            AnalysisCache(),
            workers=1,
            max_queue=0,
            executor="thread",
            fault_plan=plan,
        )
        try:
            assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]
            plan.analysis_delay_s = 30.0
            hog = threading.Thread(
                target=rpc,
                args=(server, "slice"),
                kwargs={"program": "figure1", "line": 1, "deadline": 3.0},
            )
            hog.start()
            assert wait_until(
                lambda: rpc(server, "health")["result"]["busy"] == 1, 5.0
            )

            answered_on: list[int] = []
            slice_result = server._slice_result

            def recording(entry, name, item):
                answered_on.append(threading.get_ident())
                return slice_result(entry, name, item)

            server._slice_result = recording
            warm = rpc(server, "slice", program="figure2", line=SEED_LINE)
            assert warm["ok"], warm
            assert warm["result"]["origin"] == "memory"
            assert answered_on == [threading.get_ident()]
            health = rpc(server, "health")["result"]
            assert health["shed_total"] == 0
            assert health["busy"] == 1 and health["queued"] == 0
            hog.join(timeout=10)
            assert not hog.is_alive()
        finally:
            server.close()

    def test_cold_miss_keys_once_and_misses_once(self, tmp_path, monkeypatch):
        """A miss probes the store once and hashes its key once; the
        worker's lookup starts past the tiers the hit probe covered."""
        store = DiskStore(tmp_path)
        server = make_server(AnalysisCache(store=store), executor="thread")
        keyed: list[str] = []
        content_key = cache_module.content_key

        def counting(source, options):
            keyed.append(source)
            return content_key(source, options)

        monkeypatch.setattr(cache_module, "content_key", counting)
        try:
            before = store.stats.misses
            cold = rpc(server, "slice", program="figure2", line=SEED_LINE)
            assert cold["result"]["origin"] == "analyzed"
            assert store.stats.misses == before + 1
            assert len(keyed) == 1
            warm = rpc(server, "slice", program="figure2", line=SEED_LINE)
            assert warm["result"]["origin"] == "memory"
            assert len(keyed) == 2
        finally:
            server.close()

    def test_worker_fault_fires_once_for_a_hit(self):
        plan = FaultPlan()
        server = make_server(AnalysisCache(), executor="thread", fault_plan=plan)
        try:
            assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]
            plan.worker_errors = 1
            failed = rpc(server, "slice", program="figure2", line=SEED_LINE)
            assert failed["error"]["type"] == "InjectedFault"
            assert plan.worker_errors == 0
            assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]
        finally:
            server.close()

    def test_bad_deadline_rejected_before_the_lookup(self):
        server = make_server(AnalysisCache(), executor="thread")
        try:
            assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]
            bad = rpc(
                server, "slice", program="figure2", line=SEED_LINE, deadline=-1
            )
            assert bad["error"]["type"] == "BadParams"
            assert server.cache.memory_hits == 0
        finally:
            server.close()

    def test_inline_corruption_reanswered_identically_on_a_worker(self, tmp_path):
        """A hit whose flat walk fails degrades once — quarantine, one
        ``degraded_recomputes`` — and the cold re-analysis runs on a
        worker, giving the byte-identical answer."""
        store = DiskStore(tmp_path)
        server = make_server(AnalysisCache(store=store), executor="thread")
        line = request_line("slice", source=FLOWING, include_stdlib=False, line=6)
        try:
            first = server.handle_line(line)
            assert json.loads(first)["result"]["origin"] == "analyzed"
            key = cache_key(FLOWING, AnalyzeOptions(include_stdlib=False))
            path = store.path_for(key)
            payload = path.read_bytes()
            # Digest-valid bytes whose edge targets are out of range:
            # the flat walk raises mid-query.
            sections = [
                (tag, payload[start : start + length])
                for tag, (start, length) in parse_sections(payload).items()
            ]
            sections = [
                (tag, b"\xff" * len(body) if tag == b"ETGT" else body)
                for tag, body in sections
            ]
            server.cache._entries[key] = CacheEntry(
                view=ArtifactView.from_buffer(
                    pack_sections(sections), verify="none"
                )
            )

            lookups: list[tuple[str, str]] = []
            get_entry = server.cache.get_entry

            def recording(*args, **kwargs):
                lookups.append(
                    (kwargs.get("tiers"), threading.current_thread().name)
                )
                return get_entry(*args, **kwargs)

            server.cache.get_entry = recording
            assert server.handle_line(line) == first
            assert server.degraded_recomputes == 1
            assert (store.corrupt_dir / path.name).exists()
            assert [tiers for tiers, _ in lookups] == ["warm", "cold"]
            assert lookups[0][1] == threading.current_thread().name
            assert lookups[1][1].startswith("repro-query")
        finally:
            server.close()


class TestProgramNames:
    def test_program_requests_do_not_glob_the_programs_directory(
        self, monkeypatch
    ):
        globs = []
        real_glob = Path.glob

        def counting_glob(self, *args, **kwargs):
            globs.append(self)
            return real_glob(self, *args, **kwargs)

        monkeypatch.setattr(Path, "glob", counting_glob)
        server = make_server(AnalysisCache(), executor="thread")
        try:
            for _ in range(100):
                assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]
            assert len(globs) <= 1
        finally:
            server.close()


class TestOnePassPayload:
    def test_payload_scans_the_traversal_once(self, monkeypatch):
        from repro import analyze
        from repro.artifact import content_key, encode_artifact

        options = AnalyzeOptions()
        analyzed = analyze(SOURCE, "figure2.mj", options=options)
        view = ArtifactView.from_buffer(
            encode_artifact(analyzed, key=content_key(SOURCE, options))
        )
        for flavor in ("thin", "traditional"):
            result = flat_slicer(view, flavor).slice_from_line(SEED_LINE)
            calls = 0
            counts_as_inspected = view.counts_as_inspected

            def counting(node):
                nonlocal calls
                calls += 1
                return counts_as_inspected(node)

            monkeypatch.setattr(view, "counts_as_inspected", counting)
            payload = slice_payload(
                result, program="figure2.mj", line=SEED_LINE, flavor=flavor
            )
            monkeypatch.undo()
            assert 0 < calls <= len(result.traversal.order)
            rich = (
                analyzed.thin_slicer
                if flavor == "thin"
                else analyzed.traditional_slicer
            ).slice_from_line(SEED_LINE)
            assert payload == slice_payload(
                rich, program="figure2.mj", line=SEED_LINE, flavor=flavor
            )
            assert payload["statement_count"] == len(result.statements)


class _RecordingStream(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


class TestRequestLog:
    def test_full_buffer_drops_and_counts_then_close_flushes(self):
        stream = _RecordingStream()
        log = RequestLog(stream, capacity=2, interval_s=3600)
        for index in range(5):
            log.append({"event": "request", "n": index})
        assert log.dropped == 3
        assert stream.getvalue() == ""  # nothing written on the caller
        log.close()
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [0, 1]

    def test_writes_whole_lines_within_pipe_buf(self):
        stream = _RecordingStream()
        log = RequestLog(stream, interval_s=3600)
        for index in range(200):
            log.append({"event": "request", "n": index, "pad": "x" * 60})
        log.close()
        assert len(stream.writes) > 1
        for chunk in stream.writes:
            assert len(chunk.encode()) <= PIPE_BUF
            assert chunk.endswith("\n")
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["n"] for line in lines] == list(range(200))

    def test_concurrent_appends_are_written_or_counted(self):
        """Every record offered by many threads while the writer runs
        is either written exactly once or counted as dropped."""
        stream = _RecordingStream()
        log = RequestLog(stream, capacity=64, interval_s=0.001)
        threads, per_thread = 8, 500
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda t=t: [
                        log.append({"t": t, "n": n}) for n in range(per_thread)
                    ]
                )
                for t in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(switch)
            log.close()
        written = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert len({(r["t"], r["n"]) for r in written}) == len(written)
        assert len(written) + log.dropped == threads * per_thread

    def test_writer_flushes_on_its_timer(self):
        stream = _RecordingStream()
        log = RequestLog(stream, interval_s=0.01)
        try:
            log.append({"event": "request"})
            assert wait_until(lambda: stream.getvalue() != "", 5.0)
        finally:
            log.close()

    def test_without_a_stream_keeps_nothing(self):
        log = RequestLog(None, capacity=1)
        for _ in range(3):
            log.append({"event": "request"})
        assert log.dropped == 0
        log.close()

    def test_daemon_reports_drops_and_stamps_its_endpoint(self):
        stream = _RecordingStream()
        server = make_server(
            AnalysisCache(),
            executor="thread",
            request_log=RequestLog(stream, capacity=1, interval_s=3600),
        )
        server.endpoint = "127.0.0.1:7341"
        try:
            rpc(server, "ping")
            rpc(server, "ping")
            # The second ping's record was dropped; each answer counts
            # before its own record is offered.
            assert rpc(server, "health")["result"]["log_dropped"] == 1
            assert rpc(server, "stats")["result"]["service"]["log_dropped"] == 2
        finally:
            server.close()
        (record,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert record == {
            "endpoint": "127.0.0.1:7341",
            "event": "request",
            "latency_ms": record["latency_ms"],
            "method": "ping",
            "ok": True,
            "timed_out": False,
        }
