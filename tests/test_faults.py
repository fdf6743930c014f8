"""Chaos drills: the daemon must survive every injected fault.

Each test arms one dial on a :class:`repro.server.faults.FaultPlan`,
drives the real daemon through the failure, and asserts (a) the failure
surfaces as a structured error — never a crash or a hang — and (b) the
daemon keeps answering afterwards with correct counters.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import AnalyzeOptions, Budget, BudgetExceeded, analyze
from repro.lang.source import marker_line
from repro.server.cache import AnalysisCache
from repro.server.client import ServerError, SliceClient
from repro.server.daemon import SliceServer, start_tcp_server
from repro.server.faults import FaultPlan, InjectedFault
from repro.server.store import DiskStore
from repro.suite.loader import load_source
from tests.conftest import make_server

SOURCE = load_source("figure2")
SEED_LINE = marker_line(SOURCE, "tag", "seed")


def rpc(server: SliceServer, method: str, request_id=1, **params):
    line = json.dumps({"id": request_id, "method": method, "params": params})
    return json.loads(server.handle_line(line))


def wait_until(predicate, timeout_s: float, interval_s: float = 0.02) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture
def faulty():
    """A daemon with an armed (but initially inert) fault plan."""
    plan = FaultPlan()
    server = make_server(
        AnalysisCache(), workers=2, max_queue=4, fault_plan=plan
    )
    yield server, plan
    server.close()


class TestBudget:
    def test_expired_budget_aborts_analysis(self):
        budget = Budget.from_timeout(0.0)
        options = AnalyzeOptions(budget=budget)
        with pytest.raises(BudgetExceeded):
            analyze(SOURCE, "figure2.mj", options=options)

    def test_cancelled_budget_aborts_analysis(self):
        budget = Budget()
        budget.cancel("test says stop")
        with pytest.raises(BudgetExceeded) as err:
            analyze(SOURCE, "figure2.mj", options=AnalyzeOptions(budget=budget))
        assert "test says stop" in str(err.value)

    def test_artifact_never_retains_budget(self):
        budget = Budget.from_timeout(60.0)
        analyzed = analyze(
            SOURCE, "figure2.mj", options=AnalyzeOptions(budget=budget)
        )
        assert analyzed.options.budget is None

    def test_step_budget(self):
        budget = Budget(max_steps=10)
        with pytest.raises(BudgetExceeded) as err:
            for _ in range(1000):
                budget.poll()
        assert err.value.reason == "steps"

    def test_budget_excluded_from_cache_key(self):
        from repro.server.cache import cache_key

        plain = AnalyzeOptions()
        budgeted = AnalyzeOptions(budget=Budget.from_timeout(1.0))
        assert cache_key(SOURCE, plain) == cache_key(SOURCE, budgeted)


class TestWorkerFaults:
    def test_injected_worker_error_is_isolated(self, faulty):
        server, plan = faulty
        plan.worker_errors = 1
        response = rpc(server, "slice", program="figure2", line=SEED_LINE)
        assert response["ok"] is False
        assert response["error"]["type"] == "InjectedFault"
        # The daemon survives and the next request succeeds.
        retry = rpc(server, "slice", program="figure2", line=SEED_LINE)
        assert retry["ok"] is True
        stats = rpc(server, "stats")["result"]
        assert stats["methods"]["slice"]["count"] == 2
        assert stats["methods"]["slice"]["errors"] == 1

    def test_deadline_frees_worker_within_a_second(self, faulty):
        server, plan = faulty
        plan.analysis_delay_s = 30.0
        start = time.monotonic()
        response = rpc(
            server, "slice", program="figure2", line=SEED_LINE, deadline=0.2
        )
        elapsed = time.monotonic() - start
        assert response["error"]["type"] == "Timeout"
        assert elapsed < 2.0
        # The cancelled worker must observe its budget and free itself
        # well within a second — watched through the health RPC, which
        # never touches the pool.
        assert wait_until(
            lambda: rpc(server, "health")["result"]["busy"] == 0, 1.0
        )
        health = rpc(server, "health")["result"]
        assert health["cancelled_total"] >= 1
        # Recovery: with the delay disarmed the same query succeeds.
        plan.analysis_delay_s = 0.0
        assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]

    def test_cancelled_analysis_leaves_no_cache_entry(self, tmp_path):
        plan = FaultPlan(analysis_delay_s=30.0)
        store = DiskStore(tmp_path / "store")
        cache = AnalysisCache(store=store, fault_plan=plan)
        server = make_server(cache, fault_plan=plan)
        try:
            response = rpc(
                server, "slice", program="figure2", line=SEED_LINE, deadline=0.2
            )
            assert response["error"]["type"] == "Timeout"
            assert wait_until(
                lambda: rpc(server, "health")["result"]["busy"] == 0, 1.0
            )
            assert len(cache) == 0
            assert cache.misses == 0
            assert store.stats.saves == 0
            assert not list((tmp_path / "store").glob("*/*.art"))
        finally:
            server.close()

    def test_cancelled_then_retried_is_byte_identical(self, faulty):
        """Differential safety: a cancelled request, retried, must
        produce exactly the payload an undisturbed server produces."""
        server, plan = faulty
        plan.analysis_delay_s = 30.0
        cancelled = rpc(
            server, "slice", program="figure2", line=SEED_LINE, deadline=0.2
        )
        assert cancelled["error"]["type"] == "Timeout"
        assert wait_until(
            lambda: rpc(server, "health")["result"]["busy"] == 0, 1.0
        )
        plan.analysis_delay_s = 0.0
        retried = rpc(server, "slice", program="figure2", line=SEED_LINE)
        assert retried["ok"]

        fresh = make_server(AnalysisCache())
        try:
            undisturbed = rpc(
                fresh, "slice", program="figure2", line=SEED_LINE
            )
        finally:
            fresh.close()
        assert json.dumps(retried["result"], sort_keys=True) == json.dumps(
            undisturbed["result"], sort_keys=True
        )


class TestProcessExecutor:
    """Drills that only make sense when analyses run in worker
    *processes*: the failure is a dead process, not an exception, and
    recovery means the pool respawned a replacement.  These always use
    ``executor="process"`` explicitly — they are meaningless in thread
    mode — while the rest of the file follows the suite-wide knob."""

    @pytest.fixture
    def process_server(self, tmp_path):
        plan = FaultPlan()
        store = DiskStore(tmp_path / "store")
        cache = AnalysisCache(store=store)
        server = SliceServer(
            cache, workers=2, executor="process", fault_plan=plan
        )
        # Pay spawn costs up front so the drills' timing assertions
        # measure fault handling, not worker start-up.
        server.process_pool.prestart(wait=True)
        yield server, plan, cache, store
        server.close()

    def test_worker_crash_respawns_and_retry_succeeds(self, process_server):
        server, plan, cache, store = process_server
        spawned_before = server.process_pool.stats()["spawned_total"]
        plan.worker_process_crashes = 1

        response = rpc(server, "slice", program="figure2", line=SEED_LINE)
        assert response["ok"] is False
        assert response["error"]["type"] == "WorkerCrashed"

        # The crash must leave no trace in either cache tier.
        assert len(cache) == 0
        assert cache.misses == 0
        assert store.stats.saves == 0
        assert not list(store.root.glob("*/*.art"))

        # The pool replaces the dead worker in the background.
        assert wait_until(
            lambda: rpc(server, "health")["result"]["pool"]["spawned_total"]
            > spawned_before,
            5.0,
        )

        # A retry recomputes and must be byte-identical to what an
        # undisturbed (thread-mode) server answers.
        retried = rpc(server, "slice", program="figure2", line=SEED_LINE)
        assert retried["ok"] is True
        fresh = SliceServer(AnalysisCache())
        try:
            undisturbed = rpc(fresh, "slice", program="figure2", line=SEED_LINE)
        finally:
            fresh.close()
        assert json.dumps(retried["result"], sort_keys=True) == json.dumps(
            undisturbed["result"], sort_keys=True
        )
        assert store.stats.saves == 1  # the retry's serialize-once write

    def test_deadline_kills_worker_and_frees_slot(self, process_server):
        server, plan, cache, store = process_server
        # A *non-cooperative* stall: the worker cannot poll any budget,
        # so only the parent-side kill can end it.
        plan.worker_process_delay_s = 30.0

        start = time.monotonic()
        response = rpc(
            server, "slice", program="figure2", line=SEED_LINE, deadline=0.2
        )
        elapsed = time.monotonic() - start
        assert response["error"]["type"] == "Timeout"
        assert elapsed < 2.0

        # The slot must free within a second of the kill, observed via
        # the health RPC (which never touches the pool).
        assert wait_until(
            lambda: rpc(server, "health")["result"]["busy"] == 0, 1.0
        )
        health = rpc(server, "health")["result"]
        assert health["cancelled_total"] >= 1
        assert health["pool"]["kills"] >= 1

        # No partial artifact escaped the killed worker.
        assert len(cache) == 0
        assert store.stats.saves == 0

        # Disarmed, the same query succeeds on the respawned worker.
        plan.worker_process_delay_s = 0.0
        assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]


class TestTornWrites:
    def test_torn_artifact_is_quarantined_and_recomputed(self, tmp_path):
        plan = FaultPlan(torn_writes=1)
        store = DiskStore(tmp_path / "store", fault_plan=plan)
        first = AnalysisCache(store=store)
        entry, origin = first.get_entry(SOURCE, "figure2.mj")
        assert origin == "analyzed"
        assert store.stats.saves == 1  # the torn one

        # A fresh process: the torn artifact must be quarantined, never
        # served as a bad view, and the analysis recomputed.
        second = AnalysisCache(store=DiskStore(tmp_path / "store"))
        _recomputed, origin = second.get_entry(SOURCE, "figure2.mj")
        assert origin == "analyzed"
        assert second.store.stats.quarantined == 1
        assert any(second.store.corrupt_dir.glob("*.art"))
        assert second.store.stats.saves == 1  # the clean rewrite

        # Third process: the clean artifact loads from disk.
        third = AnalysisCache(store=DiskStore(tmp_path / "store"))
        loaded, origin = third.get_entry(SOURCE, "figure2.mj")
        assert origin == "disk"
        assert loaded.view.counts["sdg_edges"] == entry.view.counts["sdg_edges"]


class TestOverload:
    def test_saturated_pool_sheds_fast_and_recovers(self):
        plan = FaultPlan(analysis_delay_s=30.0)
        server = make_server(
            AnalysisCache(), workers=1, max_queue=0, fault_plan=plan
        )
        try:
            hog = threading.Thread(
                target=rpc,
                args=(server, "slice"),
                kwargs={"program": "figure2", "line": SEED_LINE, "deadline": 0.6},
                daemon=True,
            )
            hog.start()
            assert wait_until(
                lambda: rpc(server, "health")["result"]["busy"] == 1, 1.0
            )
            start = time.monotonic()
            shed = rpc(
                server, "slice", source=SOURCE + "// shed", line=SEED_LINE
            )
            elapsed = time.monotonic() - start
            assert shed["error"]["type"] == "Overloaded"
            assert elapsed < 0.5  # rejected without queueing behind the hog
            assert rpc(server, "health")["result"]["shed_total"] == 1
            # Introspection stays responsive under full saturation.
            assert rpc(server, "ping")["ok"]
            hog.join(timeout=5)
            assert wait_until(
                lambda: rpc(server, "health")["result"]["busy"] == 0, 1.0
            )
            plan.analysis_delay_s = 0.0
            assert rpc(server, "slice", program="figure2", line=SEED_LINE)["ok"]
        finally:
            server.close()


class TestConnectionFaults:
    def test_client_disconnect_cancels_inflight_work(self):
        plan = FaultPlan(analysis_delay_s=30.0)
        server = make_server(AnalysisCache(), workers=2, fault_plan=plan)
        tcp_server, _thread = start_tcp_server(server)
        host, port = tcp_server.server_address[:2]
        try:
            sock = socket.create_connection((host, port), timeout=5)
            request = json.dumps(
                {
                    "id": 1,
                    "method": "slice",
                    "params": {"program": "figure2", "line": SEED_LINE},
                }
            )
            sock.sendall((request + "\n").encode("utf-8"))
            time.sleep(0.2)  # let the worker pick it up
            sock.close()  # client walks away mid-request
            with SliceClient.connect(host, port) as watcher:
                assert wait_until(
                    lambda: watcher.health()["busy"] == 0, 2.0
                )
                assert watcher.health()["cancelled_total"] >= 1
                plan.analysis_delay_s = 0.0
                assert watcher.slice_program("figure2", SEED_LINE)["line_count"]
        finally:
            tcp_server.shutdown()
            tcp_server.server_close()
            server.close()

    def test_dropped_connection_is_retried_transparently(self):
        plan = FaultPlan(connection_drops=1)
        server = make_server(AnalysisCache(), fault_plan=plan)
        tcp_server, _thread = start_tcp_server(server)
        host, port = tcp_server.server_address[:2]
        try:
            with SliceClient.connect(host, port, retries=2) as client:
                # The first response is dropped on the floor; the client
                # reconnects and re-asks, and the caller never notices.
                result = client.slice_program("figure2", SEED_LINE)
                assert result["line_count"] > 0
                assert plan.connection_drops == 0  # the fault did fire
        finally:
            tcp_server.shutdown()
            tcp_server.server_close()
            server.close()

    def test_no_retry_without_budget(self):
        plan = FaultPlan(connection_drops=1)
        server = make_server(AnalysisCache(), fault_plan=plan)
        tcp_server, _thread = start_tcp_server(server)
        host, port = tcp_server.server_address[:2]
        try:
            with SliceClient.connect(host, port, retries=0) as client:
                with pytest.raises(ServerError) as err:
                    client.slice_program("figure2", SEED_LINE)
                assert err.value.error_type == "Disconnected"
        finally:
            tcp_server.shutdown()
            tcp_server.server_close()
            server.close()


class TestFaultPlanUnit:
    def test_counters_are_one_shot(self):
        plan = FaultPlan(worker_errors=2)
        with pytest.raises(InjectedFault):
            plan.on_worker()
        with pytest.raises(InjectedFault):
            plan.on_worker()
        plan.on_worker()  # exhausted: no-op

    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        plan.on_worker()
        plan.on_analysis()
        assert plan.torn_write() is False
        assert plan.drop_connection() is False

    def test_slow_analysis_respects_cancellation(self):
        plan = FaultPlan(analysis_delay_s=30.0)
        budget = Budget.from_timeout(0.05)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            plan.on_analysis(budget)
        assert time.monotonic() - start < 1.0
