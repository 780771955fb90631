"""Fault tolerance for the execution engine: taxonomy, retry, supervision.

The paper's pipeline assumes every comparison completes; a production
run does not get that luxury — worker processes die, comparisons hang
on pathological inputs, and out-of-core segments rot on disk.  This
module gives the executor a *fault model*:

* a structured error taxonomy — :class:`WorkerCrash` (a work unit's
  dispatch raised or its process died), :class:`WorkerTimeout` (a
  dispatch missed its deadline) and the terminal
  :class:`PartitionFailure` — every instance carries the partition
  label(s), multi-source tags and attempt count, so a failure report
  is attributable without log spelunking;
* a :class:`RetryPolicy` (attempt budget, per-dispatch timeout,
  exponential backoff) carried by
  :class:`~repro.matching.executor.scheduler.ExecutionSettings`;
* the two runners every work unit goes through —
  :func:`run_supervised_inline` in-process and the
  :class:`SupervisedDispatcher` over a worker pool: every attempt is
  tracked against its deadline, failed attempts are retried up to the
  budget, and an exhausted work unit is resolved per ``on_error`` —

  ``"raise"``
      raise a :class:`PartitionFailure` (chained to the underlying
      fault) and abort the run;
  ``"degrade"``
      re-execute the work unit *in-process* in the parent.  Work units
      are pure functions of their pair ids and the configured
      procedure, so a degraded re-execution preserves bitwise-identical
      decisions — the run completes correctly, merely slower;
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

Both runners resolve a failed attempt in one place,
:func:`_resolve_failed_attempt`.  With the default policy (one
attempt, no timeout) and ``on_error="raise"`` it engages no recovery:
the attempt's own exception propagates unchanged, with its own type,
and nothing is recorded — a clean run pays one ``try`` per work unit.

A genuinely *killed* worker (SIGKILL, ``os._exit``) never reports
back — the pool respawns a replacement but the in-flight task is lost,
so process death is detected as a :class:`WorkerTimeout` once the
dispatch deadline lapses.  Supervising against crashes therefore needs
``RetryPolicy(timeout=...)`` set; exceptions raised *inside* a live
worker surface immediately as :class:`WorkerCrash` without any
deadline.

In-process attempts (``n_jobs=1``) honor the same timeout
*cooperatively*: the engine's chunk loop calls :func:`check_deadline`
at every chunk boundary, and a lapsed attempt raises
:class:`DeadlineExceeded` — classified by :func:`run_supervised_inline`
as a :class:`WorkerTimeout` and resolved through exactly the same
retry → degrade/skip/raise ladder as a dispatched timeout.  Only the
degraded re-execution runs deadline-free: it is the run's last resort
and must complete.
"""

from __future__ import annotations

import heapq
import queue
import time
from collections.abc import Callable, Iterator, Sequence
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
        :class:`WorkerTimeout` (``None`` = no deadline).  Dispatched
        attempts are detected the moment the deadline lapses; with a
        timeout set, dispatch is throttled to ``n_jobs`` outstanding
        tasks so time spent queued behind other tasks never counts
        against a unit's deadline.  In-process (serial) attempts
        enforce the same budget cooperatively — the chunk loop checks
        the attempt deadline at every chunk boundary
        (:func:`check_deadline`), so a lapsed attempt times out
        between chunks; a comparison stuck *inside* one chunk still
        cannot be preempted.  The degraded re-execution runs
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
    """A work unit's execution raised, or its worker process died."""

    kind = "crash"


class WorkerTimeout(ExecutionFault):
    """A dispatched work unit missed its per-attempt deadline."""

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
    label across tasks — a partition whose pairs were batched into
    several failed tasks is reported once), appends them to the run
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
    error: BaseException,
    *,
    partitions,
    fallback: Callable[[], list],
    policy: RetryPolicy,
    on_error: str,
    tracker: ProgressTracker,
):
    """Retry, degrade, skip or raise one failed attempt of a work unit.

    The one decision point both runners share.  Without recovery
    configured — *policy* neither retries nor times out and *on_error*
    is ``"raise"`` — the attempt's own *error* is re-raised unchanged
    and nothing is recorded.  Otherwise the attempt is counted and
    resolved: :data:`_RETRYING` while the attempt budget lasts (the
    caller reschedules after ``policy.delay``), the hook-free
    *fallback*'s results under ``"degrade"``, or ``None`` once the
    unit's *partitions* are failed terminally (recorded; raises under
    ``"raise"``).
    """
    if not policy.supervises and on_error == "raise":
        raise error
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
            error,
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


@dataclass
class _Pending:
    """One outstanding dispatch attempt."""

    attempt: int
    deadline: float | None


class SupervisedDispatcher:
    """Retry/timeout supervision over one worker pool's dispatch queue.

    Submissions go through ``apply_async`` with completion callbacks
    feeding a result queue; the supervising (parent) thread waits on
    that queue with a wake-up at the earliest outstanding deadline, so
    a clean run costs one queue round trip per task and a hung or dead
    worker is detected the moment its deadline lapses — never by
    blocking forever on one missing result.

    Parameters
    ----------
    policy / on_error:
        See :class:`RetryPolicy` and :data:`ON_ERROR_MODES`.
    tracker:
        The run's :class:`~repro.matching.executor.progress.ProgressTracker`.
    task_partitions:
        ``index -> Sequence[CandidatePartition]`` — the plan partitions
        task *index* touches (fault attribution).
    fallback:
        ``index -> results`` — hook-free in-process re-execution of
        task *index* (the ``"degrade"`` path).
    max_outstanding:
        Dispatch throttle used when a timeout is configured (normally
        ``n_jobs``); without a timeout every task is submitted up
        front.
    """

    def __init__(
        self,
        *,
        policy: RetryPolicy,
        on_error: str,
        tracker: ProgressTracker,
        task_partitions: Callable[[int], Sequence],
        fallback: Callable[[int], list],
        max_outstanding: int,
    ) -> None:
        if on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error {on_error!r}; "
                f"expected one of {ON_ERROR_MODES}"
            )
        self._policy = policy
        self._on_error = on_error
        self._tracker = tracker
        self._task_partitions = task_partitions
        self._fallback = fallback
        self._max_outstanding = max(max_outstanding, 1)

    def run(
        self, pool, worker: Callable, tasks: Sequence
    ) -> Iterator[tuple[int, list | None]]:
        """Yield ``(task index, results | None)`` in completion order.

        ``None`` marks a task resolved by skip / degraded-failure; its
        partitions are recorded in the report's failures.  Raises
        :class:`PartitionFailure` under ``on_error="raise"``, or the
        worker's own exception when no recovery is configured.
        """
        policy = self._policy
        results_queue: queue.Queue = queue.Queue()
        pending: dict[int, _Pending] = {}
        delayed: list[tuple[float, int, int]] = []  # (when, index, attempt)
        next_fresh = 0
        finished = 0
        limit = (
            len(tasks) if policy.timeout is None else self._max_outstanding
        )

        def submit(index: int, attempt: int) -> None:
            deadline = (
                None
                if policy.timeout is None
                else time.monotonic() + policy.timeout
            )
            pending[index] = _Pending(attempt, deadline)

            def succeeded(result, index=index, attempt=attempt):
                results_queue.put((index, attempt, result, None))

            def errored(error, index=index, attempt=attempt):
                results_queue.put((index, attempt, None, error))

            pool.apply_async(
                worker,
                ((attempt, tasks[index]),),
                callback=succeeded,
                error_callback=errored,
            )

        while finished < len(tasks):
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, index, attempt = heapq.heappop(delayed)
                submit(index, attempt)
            while next_fresh < len(tasks) and len(pending) < limit:
                submit(next_fresh, 1)
                next_fresh += 1
            wake = min(
                (
                    entry.deadline
                    for entry in pending.values()
                    if entry.deadline is not None
                ),
                default=None,
            )
            if delayed and (wake is None or delayed[0][0] < wake):
                wake = delayed[0][0]
            try:
                item = results_queue.get(
                    timeout=(
                        None
                        if wake is None
                        else max(wake - time.monotonic(), 0.0)
                    )
                )
            except queue.Empty:
                # A deadline (or a backoff resubmission) came due.
                now = time.monotonic()
                overdue = [
                    index
                    for index, entry in pending.items()
                    if entry.deadline is not None and entry.deadline <= now
                ]
                for index in overdue:
                    attempt = pending.pop(index).attempt
                    fault = self._timeout_fault(index, attempt)
                    outcome = self._attempt_failed(
                        index, fault, fault, delayed
                    )
                    if outcome is not _RETRYING:
                        finished += 1
                        yield index, outcome
                continue
            index, attempt, result, error = item
            entry = pending.get(index)
            if entry is None or entry.attempt != attempt:
                # Late result of an abandoned (timed-out) attempt: the
                # retry recomputes the same pure results; drop it.
                continue
            del pending[index]
            if error is None:
                finished += 1
                yield index, result
                continue
            fault = self._crash_fault(index, attempt, error)
            outcome = self._attempt_failed(index, fault, error, delayed)
            if outcome is not _RETRYING:
                finished += 1
                yield index, outcome

    # ------------------------------------------------------------------
    # Attempt resolution
    # ------------------------------------------------------------------

    def _timeout_fault(self, index: int, attempt: int) -> WorkerTimeout:
        labels, sources = _partitions_context(self._task_partitions(index))
        return WorkerTimeout(
            f"dispatch exceeded its {self._policy.timeout}s deadline "
            "(worker hung, or its process died and the task was lost)",
            partitions=labels,
            sources=sources,
            attempt=attempt,
        )

    def _crash_fault(
        self, index: int, attempt: int, error: BaseException
    ) -> WorkerCrash:
        labels, sources = _partitions_context(self._task_partitions(index))
        fault = WorkerCrash(
            f"worker raised {type(error).__name__}: {error}",
            partitions=labels,
            sources=sources,
            attempt=attempt,
        )
        fault.__cause__ = error
        return fault

    def _attempt_failed(
        self,
        index: int,
        fault: ExecutionFault,
        error: BaseException,
        delayed: list[tuple[float, int, int]],
    ):
        """Resolve one failed dispatch attempt, queueing any retry."""
        outcome = _resolve_failed_attempt(
            fault,
            error,
            partitions=self._task_partitions(index),
            fallback=lambda: self._fallback(index),
            policy=self._policy,
            on_error=self._on_error,
            tracker=self._tracker,
        )
        if outcome is _RETRYING:
            heapq.heappush(
                delayed,
                (
                    time.monotonic() + self._policy.delay(fault.attempt),
                    index,
                    fault.attempt + 1,
                ),
            )
        return outcome


__all__ = [
    "ON_ERROR_MODES",
    "DeadlineExceeded",
    "ExecutionFault",
    "PartitionFailure",
    "RetryPolicy",
    "SupervisedDispatcher",
    "WorkerCrash",
    "WorkerTimeout",
    "check_deadline",
    "fail_partitions",
    "run_supervised_inline",
]
