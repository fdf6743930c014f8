"""The fuzz oracle: the analyzer's no-crash/no-hang contract.

For *any* input text, running the full pipeline (and slicing from a few
seed lines) under a :class:`repro.budget.Budget` must end in exactly one
of two ways:

* **ok** — the program analyzed and sliced;
* **structured error** — an :class:`repro.lang.errors.MJError`
  (lex/parse/type/IR/analysis diagnostics, including the recursion
  sentinels), a :class:`repro.budget.BudgetExceeded` (the budget fired),
  or a :class:`repro.resources.ResourceExceeded` (the memory sentinel).

Anything else is a finding: an uncaught exception is a **crash**, and an
input whose wall-clock blows through the budget by a wide margin is a
**hang** (the cooperative-cancellation polls missed a hot loop).

:func:`check_source` returns a :class:`OracleResult` whose
``signature`` (verdict + exception type + a message prefix) is what the
campaign de-duplicates and the minimizer preserves while shrinking.
"""

from __future__ import annotations

import random
import time
import traceback
from dataclasses import dataclass

from repro import AnalyzeOptions, analyze
from repro.budget import Budget, BudgetExceeded
from repro.lang.errors import MJError
from repro.resources import ResourceExceeded

#: Wall-clock slack: duration beyond ``budget * factor + 1s`` is a hang.
HANG_FACTOR = 3.0

#: Default per-input analysis budget, seconds.
DEFAULT_INPUT_BUDGET_S = 5.0

#: Slice from these seed lines after a successful analysis (both
#: flavors); out-of-range lines simply produce empty slices.
_SLICE_LINES = (1, 5, 12)


@dataclass
class OracleResult:
    verdict: str  # "ok" | "error" | "crash" | "hang"
    error_type: str | None
    message: str
    duration_s: float
    traceback: str = ""

    @property
    def failed(self) -> bool:
        return self.verdict in ("crash", "hang")

    @property
    def signature(self) -> str:
        """Stable identity of a failure, for dedup and minimization."""
        if self.verdict == "hang":
            return "hang"
        return f"{self.verdict}:{self.error_type}:{self.message[:80]}"


def check_source(
    source: str,
    *,
    budget_s: float = DEFAULT_INPUT_BUDGET_S,
    filename: str = "<fuzz>",
) -> OracleResult:
    """Run one input through the oracle contract."""
    start = time.monotonic()

    def done(verdict: str, error_type: str | None, message: str,
             tb: str = "") -> OracleResult:
        duration = time.monotonic() - start
        if duration > budget_s * HANG_FACTOR + 1.0:
            # Whatever else happened, the budget failed to bound it.
            return OracleResult(
                "hang",
                error_type,
                f"analysis ran {duration:.1f}s against a {budget_s:g}s "
                f"budget (then: {message or verdict})",
                duration,
                tb,
            )
        return OracleResult(verdict, error_type, message, duration, tb)

    options = AnalyzeOptions(budget=Budget.from_timeout(budget_s))
    try:
        analyzed = analyze(source, filename, options=options)
        for line in _SLICE_LINES:
            analyzed.thin_slicer.slice_from_line(line)
            analyzed.traditional_slicer.slice_from_line(line)
    except MJError as exc:
        return done("error", type(exc).__name__, str(exc))
    except BudgetExceeded as exc:
        return done("error", "BudgetExceeded", str(exc))
    except ResourceExceeded as exc:
        return done("error", "ResourceExceeded", str(exc))
    except Exception as exc:  # the finding the fuzzer exists to catch
        return done(
            "crash", type(exc).__name__, str(exc), traceback.format_exc()
        )
    return done("ok", None, "")


@dataclass
class EditSessionResult(OracleResult):
    """Oracle result for a warm-edit session, plus the failing text."""

    #: The edited source at the step that produced the finding (empty
    #: when the session passed) — the repro input the campaign records.
    failing_source: str = ""
    steps_checked: int = 0
    #: Steps served incrementally and confirmed byte-identical to cold
    #: (the rest were declines, where cold fallback is the contract).
    steps_verified: int = 0


def check_edit_session(
    source: str,
    rng: random.Random,
    *,
    steps: int = 6,
    budget_s: float = DEFAULT_INPUT_BUDGET_S,
    filename: str = "<fuzz-edit>",
) -> EditSessionResult:
    """Differential oracle for the incremental engine.

    Replays an :func:`repro.fuzz.mutate.edit_session` against an
    :class:`repro.incremental.IncrementalSession` and, at every step,
    against a cold analysis of the same text.  A declined step
    re-anchors the session at its cold result, as the serving tier
    does.  The contract:

    * cold succeeds → the session either *declines* (cold fallback is
      always sound) or returns a payload **byte-identical** to the cold
      artifact;
    * cold fails structurally → the session must not fabricate a
      result: anything but a decline is a finding;
    * the session must never raise anything but a decline or a budget
      cancellation.

    Findings surface as verdict ``"crash"`` with error types
    ``IncrementalMismatch`` / ``IncrementalAcceptedInvalid`` / the
    unexpected exception's type, so the campaign de-duplicates them
    like any other crash signature.
    """
    from repro.artifact import content_key, encode_artifact
    from repro.fuzz.mutate import edit_session
    from repro.incremental import DeclinedError, IncrementalSession

    start = time.monotonic()
    checked = verified = 0

    def done(
        verdict: str,
        error_type: str | None,
        message: str,
        tb: str = "",
        failing: str = "",
    ) -> EditSessionResult:
        return EditSessionResult(
            verdict,
            error_type,
            message,
            time.monotonic() - start,
            tb,
            failing,
            checked,
            verified,
        )

    options = AnalyzeOptions(budget=Budget.from_timeout(budget_s))
    try:
        cold = analyze(source, filename, options=options)
    except (MJError, BudgetExceeded, ResourceExceeded) as exc:
        return done(
            "error", type(exc).__name__, f"seed did not analyze: {exc}"
        )
    except Exception as exc:
        # check_source territory, but classify rather than propagate.
        return done(
            "crash", type(exc).__name__, str(exc), traceback.format_exc()
        )
    try:
        session = IncrementalSession.from_analyzed(
            cold,
            source,
            payload=encode_artifact(cold, key=content_key(source, options)),
        )
    except DeclinedError as exc:
        return done(
            "error", "IncrementalDeclined", f"seed declined: {exc.reason}"
        )

    for label, edited in edit_session(source, rng, steps=steps):
        checked += 1
        cold_error: Exception | None = None
        step_options = AnalyzeOptions(budget=Budget.from_timeout(budget_s))
        try:
            step_cold = analyze(edited, filename, options=step_options)
        except MJError as exc:
            cold_error = exc
        except (BudgetExceeded, ResourceExceeded) as exc:
            return done("error", type(exc).__name__, str(exc))
        except Exception as exc:
            return done(
                "crash",
                type(exc).__name__,
                f"cold analysis crashed at step {checked} ({label}): {exc}",
                traceback.format_exc(),
                failing=edited,
            )
        try:
            outcome = session.apply_edit(
                edited, filename, budget=Budget.from_timeout(budget_s)
            )
        except DeclinedError:
            # Cold fallback; its result anchors the next step.
            if cold_error is None:
                session = IncrementalSession.from_analyzed(
                    step_cold,
                    edited,
                    payload=encode_artifact(
                        step_cold,
                        key=content_key(edited, step_options),
                    ),
                )
            continue
        except BudgetExceeded as exc:
            return done("error", "BudgetExceeded", str(exc))
        except Exception as exc:
            return done(
                "crash",
                type(exc).__name__,
                f"session raised at step {checked} ({label}): {exc}",
                traceback.format_exc(),
                failing=edited,
            )
        if cold_error is not None:
            return done(
                "crash",
                "IncrementalAcceptedInvalid",
                f"step {checked} ({label}): incremental produced tier="
                f"{outcome.tier} but cold raised "
                f"{type(cold_error).__name__}: {cold_error}",
                failing=edited,
            )
        want = encode_artifact(
            step_cold,
            key=content_key(edited, step_options),
        )
        if outcome.payload != want:
            return done(
                "crash",
                "IncrementalMismatch",
                f"step {checked} ({label}): tier={outcome.tier} payload "
                f"({len(outcome.payload)} bytes) != cold ({len(want)} bytes)",
                failing=edited,
            )
        verified += 1
    return done("ok", None, "")
