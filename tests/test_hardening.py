"""Input hardening: recursion sentinels, memory limits, quarantine,
circuit breaker, fuzz oracle, regression corpus, store tmp sweep.

The acceptance drills for the hardening work: hostile inputs produce
structured errors (never uncaught exceptions or hangs), inputs that
kill worker processes get quarantined and answered fast, pool-wide
crash storms degrade process→thread, and the fuzz subsystem that
guards all of this is itself deterministic.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path

import pytest

from repro import AnalyzeOptions, analyze
from repro.lang.errors import MJError, ParseError
from repro.parallel import analyze_artifact
from repro.resources import ResourceExceeded, process_rss_mb
from repro.server.cache import AnalysisCache, cache_key
from repro.server.daemon import SliceServer, start_tcp_server
from repro.server.faults import FaultPlan
from repro.server.quarantine import CircuitBreaker, Quarantine
from repro.server.store import DiskStore
from repro.suite.loader import load_source
from tests.conftest import make_server

CORPUS_DIR = Path(__file__).parent / "corpus"

MAIN_WRAP = "class Main {{\n  static void main(String[] args) {{\n{}\n  }}\n}}\n"


def rpc(server: SliceServer, method: str, request_id=1, **params):
    line = json.dumps({"id": request_id, "method": method, "params": params})
    return json.loads(server.handle_line(line))


# ----------------------------------------------------------------------
# Recursion sentinels
# ----------------------------------------------------------------------


class TestRecursionSentinels:
    def test_deep_paren_nesting_is_parse_error(self):
        source = MAIN_WRAP.format(
            "    int x = " + "(" * 300 + "1" + ")" * 300 + ";"
        )
        with pytest.raises(ParseError, match="nesting exceeds"):
            analyze(source)

    def test_deep_statement_nesting_is_parse_error(self):
        body = "".join("if (true) { " for _ in range(200))
        body += "print(1);" + " }" * 200
        with pytest.raises(ParseError, match="nesting exceeds"):
            analyze(MAIN_WRAP.format("    " + body))

    def test_unary_chain_is_parse_error(self):
        source = MAIN_WRAP.format(
            "    boolean b = " + "!" * 400 + "true;\n    print(1);"
        )
        with pytest.raises(ParseError, match="unary operator chain"):
            analyze(source)

    def test_wide_binary_chain_is_structured_error(self):
        # Parses fine (iterative) but the left-deep AST would blow the
        # recursive typechecker; the frontend converts RecursionError
        # into a structured MJError.
        chain = " + ".join(["x"] * 4000)
        source = MAIN_WRAP.format(f"    int x = 1;\n    int y = {chain};")
        with pytest.raises(MJError, match="recursion limits"):
            analyze(source)

    def test_reasonable_nesting_still_parses(self):
        source = MAIN_WRAP.format(
            "    int x = " + "(" * 30 + "1" + ")" * 30 + ";\n    print(x);"
        )
        assert analyze(source).sdg is not None


# ----------------------------------------------------------------------
# Resource sentinel plumbing
# ----------------------------------------------------------------------


class TestResourceSentinel:
    def test_process_rss_mb_reads_self(self):
        rss = process_rss_mb(os.getpid())
        if rss is None:
            pytest.skip("/proc not available on this platform")
        assert 1.0 < rss < 100_000.0

    def test_memory_limit_excluded_from_cache_token(self):
        capped = AnalyzeOptions(memory_limit_mb=64.0)
        uncapped = AnalyzeOptions()
        assert capped.cache_token() == uncapped.cache_token()

    def test_analyze_strips_memory_limit_from_artifact(self):
        analyzed = analyze(
            load_source("figure2"),
            "figure2.mj",
            options=AnalyzeOptions(memory_limit_mb=4096.0),
        )
        assert analyzed.options.memory_limit_mb is None

    def test_resource_exceeded_is_not_mj_error(self):
        exc = ResourceExceeded("memory", "over", limit_mb=1, observed_mb=2)
        assert not isinstance(exc, MJError)
        assert exc.limit_mb == 1 and exc.observed_mb == 2


# ----------------------------------------------------------------------
# Quarantine + circuit breaker units
# ----------------------------------------------------------------------


class TestQuarantineUnit:
    def test_quarantines_after_threshold(self):
        q = Quarantine(threshold=3)
        assert q.check("fp") is None
        assert not q.record_failure("fp", "WorkerCrashed", "boom")
        assert not q.record_failure("fp", "WorkerCrashed", "boom")
        assert q.record_failure("fp", "WorkerCrashed", "boom")
        message = q.check("fp")
        assert message is not None and "3 worker-killing" in message
        stats = q.stats()
        assert stats["quarantined"] == 1
        assert stats["rejected_total"] == 1

    def test_capacity_is_bounded_lru(self):
        q = Quarantine(threshold=1, capacity=2)
        q.record_failure("a", "WorkerCrashed", "x")
        q.record_failure("b", "WorkerCrashed", "x")
        q.record_failure("c", "WorkerCrashed", "x")  # evicts "a"
        assert q.stats()["size"] == 2
        assert q.check("a") is None  # evicted: strikes forgotten
        assert q.check("b") is not None

    def test_distinct_fingerprints_do_not_share_strikes(self):
        q = Quarantine(threshold=2)
        q.record_failure("a", "WorkerCrashed", "x")
        q.record_failure("b", "WorkerCrashed", "x")
        assert q.check("a") is None and q.check("b") is None


class TestCircuitBreakerUnit:
    def test_trips_after_threshold_within_window(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=3, window_s=10, cooldown_s=60,
                           clock=lambda: clock[0])
        assert b.allow_process()
        b.record_crash()
        b.record_crash()
        assert b.state() == "closed"
        assert b.record_crash()  # third within the window: open
        assert b.state() == "open"
        assert not b.allow_process()
        assert b.stats()["trips_total"] == 1

    def test_old_crashes_age_out_of_window(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=2, window_s=5, cooldown_s=60,
                           clock=lambda: clock[0])
        b.record_crash()
        clock[0] = 10.0  # first crash is outside the window now
        assert not b.record_crash()
        assert b.state() == "closed"

    def test_half_open_probe_success_closes(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=1, window_s=10, cooldown_s=30,
                           clock=lambda: clock[0])
        b.record_crash()
        assert not b.allow_process()
        clock[0] = 31.0
        assert b.state() == "half_open"
        assert b.allow_process()  # the probe
        b.record_success()
        assert b.state() == "closed"

    def test_half_open_probe_crash_reopens(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=1, window_s=10, cooldown_s=30,
                           clock=lambda: clock[0])
        b.record_crash()
        clock[0] = 31.0
        assert b.allow_process()
        b.record_crash()  # the probe dies
        assert not b.allow_process()
        assert b.stats()["trips_total"] == 2


# ----------------------------------------------------------------------
# Daemon integration: poison quarantine, breaker degradation, memory
# ----------------------------------------------------------------------


class TestDaemonQuarantine:
    def test_health_reports_quarantine_and_breaker(self):
        server = make_server(AnalysisCache())
        try:
            health = rpc(server, "health")["result"]
            assert health["quarantine"]["size"] == 0
            assert health["breaker"]["state"] == "closed"
        finally:
            server.close()

    def test_poisoned_fingerprint_is_quarantined_fast(self):
        # The ISSUE acceptance drill: an input that crashes its worker
        # three times is answered with PoisonInput in under 100 ms —
        # no fourth respawn.
        plan = FaultPlan(worker_process_crashes=3)
        server = SliceServer(
            AnalysisCache(),
            workers=2,
            fault_plan=plan,
            executor="process",
            quarantine=Quarantine(threshold=3),
        )
        server.prestart()
        try:
            for attempt in range(3):
                response = rpc(server, "slice", program="figure2", line=8)
                assert response["error"]["type"] == "WorkerCrashed"
            start = time.perf_counter()
            response = rpc(server, "slice", program="figure2", line=8)
            elapsed_ms = (time.perf_counter() - start) * 1000
            assert response["error"]["type"] == "PoisonInput"
            assert "quarantined" in response["error"]["message"]
            assert elapsed_ms < 100
            health = rpc(server, "health")["result"]
            assert health["quarantine"]["quarantined"] == 1
            assert health["quarantine"]["rejected_total"] >= 1
            # Other inputs are unaffected.
            assert rpc(server, "slice", program="figure1", line=8)["ok"]
        finally:
            server.close()

    def test_breaker_degrades_process_to_thread(self):
        plan = FaultPlan(worker_process_crashes=2)
        server = SliceServer(
            AnalysisCache(),
            workers=2,
            fault_plan=plan,
            executor="process",
            quarantine=Quarantine(threshold=100),  # stay out of the way
            breaker=CircuitBreaker(threshold=2, window_s=60, cooldown_s=600),
        )
        server.prestart()
        try:
            # Two different inputs crash their workers: pool-level storm.
            assert (
                rpc(server, "slice", program="figure2", line=8)["error"]["type"]
                == "WorkerCrashed"
            )
            assert (
                rpc(server, "slice", program="figure1", line=8)["error"]["type"]
                == "WorkerCrashed"
            )
            health = rpc(server, "health")["result"]
            assert health["breaker"]["state"] == "open"
            # The breaker is open: the next cold analysis runs on the
            # request thread instead of a worker process — and succeeds
            # even though the crash dial is still armed.
            plan.worker_process_crashes = 5
            response = rpc(server, "slice", program="figure4", line=8)
            assert response["ok"], response
            assert plan.worker_process_crashes == 5  # never consulted
        finally:
            server.close()

    def test_memory_limit_surfaces_resource_exceeded(self):
        plan = FaultPlan(worker_alloc_mb=700.0)
        server = SliceServer(
            AnalysisCache(),
            workers=1,
            fault_plan=plan,
            executor="process",
            memory_limit_mb=250.0,
        )
        server.prestart()
        try:
            response = rpc(server, "slice", program="figure2", line=8)
            assert response["error"]["type"] == "ResourceExceeded"
            assert "memory" in response["error"]["message"]
            health = rpc(server, "health")["result"]
            # One strike recorded, not quarantined yet (threshold 3).
            assert health["quarantine"]["size"] == 1
            assert health["quarantine"]["quarantined"] == 0
            assert "memory_kills" in health["pool"]
            assert "worker_peak_rss_mb" in health["pool"]
            assert health["memory_limit_mb"] == 250.0
            # With the ballast dial cleared the same input analyzes fine.
            plan.worker_alloc_mb = 0.0
            assert rpc(server, "slice", program="figure2", line=8)["ok"]
        finally:
            server.close()


# ----------------------------------------------------------------------
# TCP framing: oversized line must not poison the connection
# ----------------------------------------------------------------------


class TestTcpOversizeRecovery:
    def test_oversized_line_recovers_framing_on_same_connection(
        self, monkeypatch
    ):
        import repro.server.daemon as daemon_mod

        monkeypatch.setattr(daemon_mod, "MAX_LINE_BYTES", 1024)
        server = make_server(AnalysisCache())
        tcp_server, _thread = start_tcp_server(server)
        host, port = tcp_server.server_address[:2]
        try:
            sock = socket.create_connection((host, port), timeout=5)
            reader = sock.makefile("r", encoding="utf-8")
            ping = json.dumps({"id": 2, "method": "ping", "params": {}})
            sock.sendall(b"x" * 8192 + b"\n" + ping.encode() + b"\n")
            first = json.loads(reader.readline())
            assert first["ok"] is False
            assert first["error"]["type"] == "Protocol"
            # Same connection, next request: framing recovered.
            second = json.loads(reader.readline())
            assert second["ok"] is True
            assert second["result"]["pong"] is True
            sock.close()
        finally:
            tcp_server.shutdown()
            tcp_server.server_close()
            server.close()


# ----------------------------------------------------------------------
# Disk store: orphaned temp files
# ----------------------------------------------------------------------


class TestStoreTmpSweep:
    def _plant_tmp(self, root: Path, name: str, age_s: float) -> Path:
        bucket = root / "ab"
        bucket.mkdir(parents=True, exist_ok=True)
        tmp = bucket / name
        tmp.write_bytes(b"orphan")
        stamp = time.time() - age_s
        os.utime(tmp, (stamp, stamp))
        return tmp

    def test_open_sweeps_stale_tmp_files(self, tmp_path):
        stale = self._plant_tmp(tmp_path, "abcd.tmp.12345", age_s=3600)
        store = DiskStore(tmp_path)
        assert not stale.exists()
        assert store.stats.tmp_swept == 1
        assert store.stats.as_dict()["tmp_swept"] == 1

    def test_young_tmp_files_are_spared(self, tmp_path):
        young = self._plant_tmp(tmp_path, "abcd.tmp.12345", age_s=1)
        store = DiskStore(tmp_path)
        assert young.exists()
        assert store.stats.tmp_swept == 0

    def test_prune_sweeps_tmp_files(self, tmp_path):
        store = DiskStore(tmp_path)
        stale = self._plant_tmp(tmp_path, "ef01.tmp.999", age_s=3600)
        store.prune(10**9)
        assert not stale.exists()
        assert store.stats.tmp_swept == 1

    def test_successful_save_leaves_no_tmp(self, tmp_path):
        store = DiskStore(tmp_path)
        source = load_source("figure2")
        key = cache_key(source, AnalyzeOptions())
        payload, _ = analyze_artifact(source, "figure2.mj")
        store.save_bytes(key, payload)
        assert list(tmp_path.glob("*/*.tmp.*")) == []
        assert store.load_view(key) is not None


# ----------------------------------------------------------------------
# Fuzz subsystem
# ----------------------------------------------------------------------


class TestFuzzGrammar:
    def test_generation_is_deterministic(self):
        from repro.fuzz import generate_program

        assert generate_program(42) == generate_program(42)
        assert generate_program(42) != generate_program(43)

    def test_generated_programs_analyze(self):
        from repro.fuzz import generate_program

        for seed in range(5):
            analyzed = analyze(generate_program(seed), f"fuzz-{seed}.mj")
            assert analyzed.thin_slicer.slice_from_line(5) is not None


class TestFuzzMutate:
    def test_mutation_is_deterministic(self):
        import random

        from repro.fuzz import mutate_source

        source = load_source("figure2")
        first = mutate_source(source, random.Random(7))
        second = mutate_source(source, random.Random(7))
        assert first == second

    def test_mutated_corpus_satisfies_oracle(self):
        import random

        from repro.fuzz import check_source, mutate_source

        source = load_source("figure2")
        for seed in range(10):
            mutated = mutate_source(source, random.Random(seed))
            result = check_source(mutated, budget_s=5.0)
            assert not result.failed, (seed, result.signature)


class TestFuzzOracle:
    def test_ok_verdict(self):
        from repro.fuzz import check_source

        result = check_source(load_source("figure2"), budget_s=10.0)
        assert result.verdict == "ok" and not result.failed

    def test_structured_error_verdict(self):
        from repro.fuzz import check_source

        result = check_source("class {", budget_s=10.0)
        assert result.verdict == "error"
        assert result.error_type == "ParseError"

    def test_uncaught_exception_is_a_crash(self, monkeypatch):
        import repro.fuzz.oracle as oracle_mod

        def explode(*args, **kwargs):
            raise ValueError("pipeline bug")

        monkeypatch.setattr(oracle_mod, "analyze", explode)
        result = oracle_mod.check_source("class Main {}", budget_s=10.0)
        assert result.verdict == "crash" and result.failed
        assert result.error_type == "ValueError"
        assert "pipeline bug" in result.traceback

    def test_blown_budget_is_a_hang(self, monkeypatch):
        import repro.fuzz.oracle as oracle_mod

        def stall(*args, **kwargs):
            time.sleep(1.5)
            raise MJError("eventually gave up")

        monkeypatch.setattr(oracle_mod, "analyze", stall)
        result = oracle_mod.check_source("class Main {}", budget_s=0.1)
        assert result.verdict == "hang" and result.failed
        assert result.signature == "hang"


class TestFuzzMinimize:
    def test_shrinks_to_failing_core(self):
        from repro.fuzz import minimize_source

        source = "\n".join(f"line {i}" for i in range(40)) + "\nMAGIC\nmore"
        result = minimize_source(source, lambda s: "MAGIC" in s)
        assert result == "MAGIC"

    def test_respects_check_cap(self):
        from repro.fuzz import minimize_source

        calls = [0]

        def probe(candidate: str) -> bool:
            calls[0] += 1
            return "MAGIC" in candidate

        source = "\n".join(f"line {i}" for i in range(100)) + "\nMAGIC"
        minimize_source(source, probe, max_checks=10)
        assert calls[0] <= 10


class TestFuzzCampaign:
    def test_bounded_campaign_holds_the_contract(self, tmp_path):
        from repro.fuzz import run_campaign

        report = run_campaign(
            budget_s=300.0,
            seed=1,
            crash_dir=tmp_path,
            max_inputs=16,
            input_budget_s=5.0,
        )
        assert report.executed == 16
        assert (
            report.generated + report.mutated + report.edit_sessions == 16
        )
        assert report.edit_sessions >= 1  # the warm-edit differential ran
        assert report.ok + report.structured_errors == 16
        assert not report.failed
        assert list(tmp_path.iterdir()) == []

    def test_campaign_records_and_minimizes_crashes(
        self, tmp_path, monkeypatch
    ):
        import repro.fuzz.runner as runner_mod

        real_check = runner_mod.check_source

        def tripwire(source, **kwargs):
            if "class C0" in source:
                from repro.fuzz.oracle import OracleResult

                return OracleResult(
                    "crash", "ValueError", "planted bug", 0.0, "tb"
                )
            return real_check(source, **kwargs)

        monkeypatch.setattr(runner_mod, "check_source", tripwire)
        report = runner_mod.run_campaign(
            budget_s=300.0,
            seed=0,
            crash_dir=tmp_path,
            max_inputs=8,
            minimize_checks=30,
        )
        assert report.failed
        assert len(report.crashes) == 1  # deduplicated by signature
        crash = report.crashes[0]
        assert crash.verdict == "crash"
        assert Path(crash.path).exists()
        assert "class C0" in Path(crash.path).read_text()
        notes = Path(crash.path).with_suffix(".txt").read_text()
        assert "planted bug" in notes


class TestRegressionCorpus:
    def test_corpus_exists(self):
        assert len(list(CORPUS_DIR.glob("*.mj"))) >= 5

    @pytest.mark.parametrize(
        "path",
        sorted(CORPUS_DIR.glob("*.mj")),
        ids=lambda p: p.name,
    )
    def test_corpus_file_satisfies_oracle(self, path):
        from repro.fuzz import check_source

        result = check_source(
            path.read_text(encoding="utf-8"),
            budget_s=10.0,
            filename=path.name,
        )
        assert not result.failed, result.signature
        # Every checked-in crasher was a *failing* input once; after
        # hardening each must be a structured error, not a silent pass.
        assert result.verdict == "error"
