"""Fault tolerance for the execution engine: taxonomy, retry, supervision.

The paper's pipeline assumes every comparison completes; a production
run does not get that luxury — comparisons raise or hang on
pathological inputs, and out-of-core segments rot on disk.  This
module gives the executor a *fault model*:

* a structured error taxonomy — :class:`WorkerCrash` (a work unit's
  attempt raised), :class:`WorkerTimeout` (an attempt missed its
  deadline) and the terminal :class:`PartitionFailure` — every
  instance carries the partition label(s), multi-source tags and
  attempt count, so a failure report is attributable without log
  spelunking;
* a :class:`RetryPolicy` (attempt budget, per-attempt timeout,
  exponential backoff) carried by
  :class:`~repro.matching.executor.scheduler.ExecutionSettings`;
* the runner every work unit goes through,
  :func:`run_supervised_inline`: failed attempts are retried up to the
  budget, and an exhausted work unit is resolved per ``on_error`` —

  ``"raise"``
      raise a :class:`PartitionFailure` (chained to the underlying
      fault) and abort the run;
  ``"degrade"``
      re-execute the work unit once more without fault hook or
      deadline.  Work units are pure functions of their pair ids and
      the configured procedure, so a degraded re-execution preserves
      bitwise-identical decisions — the run completes correctly,
      merely slower;
  ``"skip"``
      drop the unit's partitions from the results and record one
      :class:`PartitionFailure` per partition in
      :attr:`ExecutionReport.failures
      <repro.matching.executor.progress.ExecutionReport.failures>` —
      the partial-run mode for consolidation-style workloads that
      prefer serving the healthy partitions over failing whole.

Every recovery is *observable*: retries, degradations and failures
increment report counters and emit
:class:`~repro.matching.executor.progress.FaultEvent` objects, so a
run can never degrade silently (the chaos CI job pins exactly this).

A failed attempt is resolved in one place,
:func:`_resolve_failed_attempt`.  With the default policy (one
attempt, no timeout) and ``on_error="raise"`` the engine engages no
recovery and never calls :func:`run_supervised_inline`: each task's
one attempt runs bare, its exception propagates unchanged, with its
own type, and nothing is recorded.

Timeouts are enforced *cooperatively*: the engine's chunk loop calls
:func:`check_deadline` at every chunk boundary, and a lapsed attempt
raises :class:`DeadlineExceeded` — classified by
:func:`run_supervised_inline` as a :class:`WorkerTimeout` and resolved
through the retry → degrade/skip/raise ladder.  Only the degraded
re-execution runs deadline-free: it is the run's last resort and must
complete.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.matching.executor.progress import FaultEvent, ProgressTracker

#: How an exhausted work unit is resolved.
ON_ERROR_MODES = ("raise", "degrade", "skip")

#: Sentinel distinguishing "attempt rescheduled" from terminal outcomes.
_RETRYING = object()


@dataclass(frozen=True)
class RetryPolicy:
    """One run's recovery budget for every work unit.

    Attributes
    ----------
    max_attempts:
        Total attempts per work unit, the first included (1 = never
        retry).
    timeout:
        Seconds one attempt may run before it counts as a
        :class:`WorkerTimeout` (``None`` = no deadline).  Enforced
        cooperatively — the chunk loop checks the attempt deadline at
        every chunk boundary (:func:`check_deadline`), so a lapsed
        attempt times out between chunks; a comparison stuck *inside*
        one chunk cannot be preempted.  The degraded re-execution runs
        deadline-free.
    backoff:
        Base delay in seconds before retry ``k`` (waits
        ``backoff * 2**(k-1)``); 0 retries immediately.
    """

    max_attempts: int = 1
    timeout: float | None = None
    backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    @property
    def supervises(self) -> bool:
        """Whether this policy alone engages recovery (retries or a
        deadline)."""
        return self.max_attempts > 1 or self.timeout is not None

    def delay(self, failed_attempt: int) -> float:
        """Seconds to wait before the attempt after *failed_attempt*."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * (2.0 ** (failed_attempt - 1))

    def deadline(self) -> float | None:
        """Monotonic deadline for an attempt starting now.

        ``None`` when the policy sets no timeout.  In-process attempts
        capture this once per attempt and hand it to the chunk loop,
        whose :func:`check_deadline` calls enforce it.
        """
        if self.timeout is None:
            return None
        return time.monotonic() + self.timeout


class ExecutionFault(Exception):
    """Base of the executor's structured error taxonomy.

    Attributes
    ----------
    partitions:
        Labels of every plan partition the faulting work unit touched.
    sources:
        Union of the partitions' multi-source tags (empty for
        single-relation plans).
    attempt:
        The attempt (1-based) that observed the fault.
    """

    #: Short taxonomy tag used in report summaries and fault events.
    kind = "fault"

    def __init__(
        self,
        message: str,
        *,
        partitions: Sequence[str] = (),
        sources: Sequence[str] = (),
        attempt: int = 1,
    ) -> None:
        super().__init__(message)
        self.partitions = tuple(partitions)
        self.sources = tuple(sources)
        self.attempt = attempt


class WorkerCrash(ExecutionFault):
    """A work unit's attempt raised."""

    kind = "crash"


class WorkerTimeout(ExecutionFault):
    """A work unit's attempt missed its deadline."""

    kind = "timeout"


class DeadlineExceeded(Exception):
    """An in-process chunk loop observed its attempt deadline lapse.

    Control-flow signal, not part of the public fault taxonomy: raised
    by the cooperative :func:`check_deadline` checks inside the
    engine's chunk loop and converted to a :class:`WorkerTimeout` by
    :func:`run_supervised_inline`.
    """


def check_deadline(deadline: float | None) -> None:
    """Raise :class:`DeadlineExceeded` when *deadline* has lapsed.

    The in-process enforcement point: the chunk loop calls this at
    every chunk boundary with the deadline captured by
    :meth:`RetryPolicy.deadline` at attempt start (``None`` = no
    timeout configured, never raises).
    """
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(
            "attempt deadline lapsed at a chunk boundary"
        )


class PartitionFailure(ExecutionFault):
    """Terminal: one partition could not be decided within the budget.

    Recorded in :attr:`ExecutionReport.failures
    <repro.matching.executor.progress.ExecutionReport.failures>` (and
    raised under ``on_error="raise"``, chained to the underlying
    fault).  ``partition`` names the single partition this failure is
    about; ``attempt`` counts the attempts consumed.
    """

    kind = "failure"

    def __init__(
        self,
        message: str,
        *,
        partition: str,
        sources: Sequence[str] = (),
        attempt: int = 1,
    ) -> None:
        super().__init__(
            message,
            partitions=(partition,),
            sources=sources,
            attempt=attempt,
        )
        self.partition = partition


def _partitions_context(partitions) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(labels, merged source tags) of the partitions a task touches."""
    labels = tuple(partition.label for partition in partitions)
    sources: dict[str, None] = {}
    for partition in partitions:
        for tag in partition.sources or ():
            sources[tag] = None
    return labels, tuple(sources)


def _record_attempt(tracker: ProgressTracker, fault: ExecutionFault) -> None:
    if isinstance(fault, WorkerTimeout):
        tracker.report.worker_timeouts += 1
    else:
        tracker.report.worker_crashes += 1


def _record_retry(
    tracker: ProgressTracker, fault: ExecutionFault
) -> None:
    tracker.report.retried_dispatches += 1
    tracker.fault_event(
        FaultEvent(
            kind="retry",
            fault=fault.kind,
            partitions=fault.partitions,
            attempt=fault.attempt,
            error=str(fault),
        )
    )


def _record_degraded(
    tracker: ProgressTracker, fault: ExecutionFault
) -> None:
    tracker.report.degraded_tasks += 1
    tracker.fault_event(
        FaultEvent(
            kind="degraded",
            fault=fault.kind,
            partitions=fault.partitions,
            attempt=fault.attempt,
            error=str(fault),
        )
    )


def fail_partitions(
    tracker: ProgressTracker,
    partitions,
    fault: ExecutionFault,
    *,
    on_error: str,
) -> None:
    """Resolve exhausted *partitions* terminally: record, then raise/skip.

    Builds one :class:`PartitionFailure` per partition (deduplicated by
    label, so a label is reported once per run), appends them to the run
    report, emits one ``"failed"`` event, and raises the first failure
    when *on_error* is ``"raise"``.
    """
    report = tracker.report
    seen = {failure.partition for failure in report.failures}
    failures = []
    for partition in partitions:
        if partition.label in seen:
            continue
        failures.append(
            PartitionFailure(
                f"partition {partition.label!r} failed after "
                f"{fault.attempt} attempt(s): {fault}",
                partition=partition.label,
                sources=partition.sources or (),
                attempt=fault.attempt,
            )
        )
    report.failures.extend(failures)
    if failures:
        tracker.fault_event(
            FaultEvent(
                kind="failed",
                fault=fault.kind,
                partitions=tuple(f.partition for f in failures),
                attempt=fault.attempt,
                error=str(fault),
            )
        )
    if on_error == "raise":
        raise (
            failures[0]
            if failures
            else PartitionFailure(
                str(fault),
                partition=fault.partitions[0] if fault.partitions else "?",
                sources=fault.sources,
                attempt=fault.attempt,
            )
        ) from fault


def _resolve_failed_attempt(
    fault: ExecutionFault,
    *,
    partitions,
    fallback: Callable[[], list],
    policy: RetryPolicy,
    on_error: str,
    tracker: ProgressTracker,
):
    """Retry, degrade, skip or raise one failed attempt of a work unit.

    The one decision point of the fault model.  The attempt is counted
    and resolved: :data:`_RETRYING` while the attempt budget lasts (the
    caller reschedules after ``policy.delay``), the hook-free
    *fallback*'s results under ``"degrade"``, or ``None`` once the
    unit's *partitions* are failed terminally (recorded; raises under
    ``"raise"``).
    """
    _record_attempt(tracker, fault)
    if fault.attempt < policy.max_attempts:
        _record_retry(tracker, fault)
        return _RETRYING
    if on_error == "degrade":
        try:
            results = fallback()
        except Exception as degraded_error:  # noqa: BLE001 — terminal below
            terminal = WorkerCrash(
                "degraded in-process re-execution raised "
                f"{type(degraded_error).__name__}: {degraded_error}",
                partitions=fault.partitions,
                sources=fault.sources,
                attempt=fault.attempt,
            )
            terminal.__cause__ = degraded_error
            fail_partitions(tracker, partitions, terminal, on_error=on_error)
            return None
        _record_degraded(tracker, fault)
        return results
    fail_partitions(tracker, partitions, fault, on_error=on_error)
    return None


def run_supervised_inline(
    execute: Callable[[int], list],
    *,
    fallback: Callable[[], list],
    partitions,
    policy: RetryPolicy,
    on_error: str,
    tracker: ProgressTracker,
) -> list | None:
    """Drive one in-process work unit through the attempt budget.

    ``execute(attempt)`` runs the unit (consulting any installed fault
    hook); ``fallback()`` is the hook-free, deadline-free degraded
    re-execution.  Returns the unit's results, or ``None`` when it was
    skipped / failed terminally.  Timeouts are enforced cooperatively:
    ``execute`` raises :class:`DeadlineExceeded` at a chunk boundary
    once ``policy.timeout`` lapses, classified here as a
    :class:`WorkerTimeout`; every other exception is a
    :class:`WorkerCrash`.  Each failed attempt is resolved by
    :func:`_resolve_failed_attempt`.
    """
    attempt = 1
    while True:
        try:
            return execute(attempt)
        except PartitionFailure:
            raise
        except Exception as raised:  # noqa: BLE001 — classified below
            error = raised
        labels, sources = _partitions_context(partitions)
        fault: ExecutionFault
        if isinstance(error, DeadlineExceeded):
            fault = WorkerTimeout(
                f"in-process execution exceeded its {policy.timeout}s "
                "deadline at a chunk boundary",
                partitions=labels,
                sources=sources,
                attempt=attempt,
            )
        else:
            fault = WorkerCrash(
                f"in-process execution raised {type(error).__name__}: "
                f"{error}",
                partitions=labels,
                sources=sources,
                attempt=attempt,
            )
        fault.__cause__ = error
        outcome = _resolve_failed_attempt(
            fault,
            partitions=partitions,
            fallback=fallback,
            policy=policy,
            on_error=on_error,
            tracker=tracker,
        )
        if outcome is not _RETRYING:
            return outcome
        delay = policy.delay(attempt)
        if delay > 0:
            time.sleep(delay)
        attempt += 1


__all__ = [
    "ON_ERROR_MODES",
    "DeadlineExceeded",
    "ExecutionFault",
    "PartitionFailure",
    "RetryPolicy",
    "WorkerCrash",
    "WorkerTimeout",
    "check_deadline",
    "fail_partitions",
    "run_supervised_inline",
]
