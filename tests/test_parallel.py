"""Unit drills for :mod:`repro.parallel` — the spawn-safe process pool.

Task functions live at module level so the spawn children can unpickle
them by import (``tests.test_parallel``).  One warm pool is shared by
the whole module: spawning a worker costs ~0.5 s, so every test that
can reuse a healthy worker does.
"""

from __future__ import annotations

import hashlib
import os
import time

import pytest

from repro.artifact import ArtifactView
from repro.budget import Budget, BudgetExceeded
from repro.parallel import (
    CRASH_EXIT_CODE,
    ProcessPool,
    WorkerCrashed,
    WorkerError,
    analyze_artifact,
)

# ----------------------------------------------------------------------
# Task functions (must be importable from the spawn child)
# ----------------------------------------------------------------------


def echo(value):
    return value


def worker_pid():
    return os.getpid()


def hash_seed():
    return os.environ.get("PYTHONHASHSEED")


def boom(message):
    raise ValueError(message)


def die():
    os._exit(CRASH_EXIT_CODE)


def stall(seconds):
    # Non-cooperative: only a parent-side kill ends this early.
    time.sleep(seconds)
    return "slept"


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(workers=2) as shared:
        yield shared


# ----------------------------------------------------------------------
# Drills
# ----------------------------------------------------------------------


class TestDispatch:
    def test_roundtrip(self, pool):
        assert pool.run(echo, {"nested": [1, 2, 3]}) == {"nested": [1, 2, 3]}

    def test_workers_are_separate_processes(self, pool):
        assert pool.run(worker_pid) != os.getpid()

    def test_child_env_is_pinned(self, pool):
        # Deterministic artifact bytes depend on this (set iteration
        # order over str keys follows the hash seed).
        assert pool.run(hash_seed) == "0"

    def test_workers_stay_warm(self, pool):
        pids = {pool.run(worker_pid) for _ in range(6)}
        # Sequential tasks reuse idle workers instead of respawning.
        assert len(pids) <= 2
        assert pool.stats()["tasks_total"] >= 6

    def test_task_error_is_transported(self, pool):
        with pytest.raises(WorkerError) as err:
            pool.run(boom, "injected message")
        assert err.value.error_type == "ValueError"
        assert err.value.message == "injected message"
        assert "boom" in err.value.traceback_text
        assert not isinstance(err.value, WorkerCrashed)

    def test_worker_survives_a_task_error(self, pool):
        before = pool.run(worker_pid)
        with pytest.raises(WorkerError):
            pool.run(boom, "still healthy afterwards")
        # An exception is a *task* failure: the worker keeps serving.
        pids = {pool.run(worker_pid) for _ in range(4)}
        assert before in pids


class TestCrashRecovery:
    def test_crash_surfaces_and_pool_respawns(self):
        with ProcessPool(workers=1) as solo:
            solo.prestart(wait=True)
            with pytest.raises(WorkerCrashed) as err:
                solo.run(die)
            assert str(CRASH_EXIT_CODE) in str(err.value)
            # The replacement worker answers the next task.
            assert solo.run(echo, "revived") == "revived"
            stats = solo.stats()
            assert stats["crashes"] == 1
            assert stats["respawns"] == 1
            assert stats["spawned_total"] == 2

    def test_deadline_kills_the_worker(self):
        with ProcessPool(workers=1) as solo:
            solo.prestart(wait=True)
            doomed = Budget.from_timeout(0.3)
            start = time.monotonic()
            with pytest.raises(BudgetExceeded) as err:
                solo.run(stall, 30.0, budget=doomed)
            elapsed = time.monotonic() - start
            assert err.value.reason == "deadline"
            # The stall is non-cooperative; only the kill explains a
            # prompt return.
            assert elapsed < 1.5
            stats = solo.stats()
            assert stats["kills"] == 1
            assert stats["crashes"] == 0
            # The background respawn restores service.
            assert solo.run(echo, "after the kill") == "after the kill"

    def test_cancellation_kills_the_worker(self):
        with ProcessPool(workers=1) as solo:
            solo.prestart(wait=True)
            budget = Budget.from_timeout(30.0)
            import threading

            threading.Timer(0.2, budget.cancel).start()
            start = time.monotonic()
            with pytest.raises(BudgetExceeded) as err:
                solo.run(stall, 30.0, budget=budget)
            assert err.value.reason == "cancelled"
            assert time.monotonic() - start < 1.5
            assert solo.stats()["kills"] == 1


class TestLifecycle:
    def test_lazy_spawn(self):
        fresh = ProcessPool(workers=4)
        try:
            assert fresh.stats()["spawned_total"] == 0
            fresh.run(echo, 1)
            # One task needed one worker; the other three were never paid.
            assert fresh.stats()["spawned_total"] == 1
        finally:
            fresh.close()

    def test_close_is_idempotent_and_rejects_new_work(self, pool):
        scratch = ProcessPool(workers=1)
        scratch.run(echo, "warm")
        scratch.close()
        scratch.close()
        with pytest.raises(RuntimeError):
            scratch.run(echo, "too late")

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError):
            ProcessPool(workers=0)


class TestArtifactTasks:
    @property
    def SOURCE(self):
        from repro.suite.loader import load_source

        return load_source("figure2")

    def test_analyze_artifact_roundtrip(self, pool):
        payload, timings = pool.run(
            analyze_artifact, self.SOURCE, "unit.mj", None
        )
        analyzed = ArtifactView.from_buffer(payload).to_analyzed_program()
        assert analyzed.sdg.statement_count() > 0
        assert analyzed.timings is None  # stripped from the artifact
        assert timings  # ... but shipped out-of-band

    def test_artifact_bytes_are_deterministic_across_workers(self, pool):
        """Every worker must encode the same analysis to the same whole
        payload, even though set/dict iteration orders inside each
        worker depend on per-process ``hash(None)`` (address-derived
        under ASLR on Python < 3.12).  Four concurrent tasks keep both
        pool workers busy; the parent's own encode must agree too."""
        from concurrent.futures import ThreadPoolExecutor

        from repro import AnalyzeOptions, analyze
        from repro.artifact import content_key, encode_artifact

        with ThreadPoolExecutor(max_workers=4) as threads:
            payloads = list(
                threads.map(
                    lambda _: pool.run(
                        analyze_artifact, self.SOURCE, "unit.mj", None
                    )[0],
                    range(4),
                )
            )
        digests = {hashlib.sha256(payload).hexdigest() for payload in payloads}
        local = encode_artifact(
            analyze(self.SOURCE, "unit.mj"),
            key=content_key(self.SOURCE, AnalyzeOptions()),
        )
        assert digests == {hashlib.sha256(local).hexdigest()}

    def test_artifact_payload_strips_timings_only(self):
        from repro import analyze
        from repro.artifact import encode_artifact

        analyzed = analyze(self.SOURCE, "unit.mj")
        restored = ArtifactView.from_buffer(
            encode_artifact(analyzed)
        ).to_analyzed_program()
        assert restored.timings is None
        assert restored.sdg.edge_count() == analyzed.sdg.edge_count()

    def test_analysis_error_keeps_original_type(self, pool):
        with pytest.raises(WorkerError) as err:
            pool.run(analyze_artifact, "class {", "broken.mj", None)
        assert err.value.error_type not in ("WorkerError", "WorkerCrashed")
        assert err.value.message
