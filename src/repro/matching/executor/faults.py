"""The fault model of the execution engine: taxonomy, policy, hook seam.

The paper's pipeline assumes every comparison completes; a production
run does not get that luxury — comparisons raise or hang on
pathological inputs, and out-of-core segments rot on disk.  This
module defines what the engine
(:class:`~repro.matching.executor.scheduler.ExecutionEngine`) recovers
with:

* a structured error taxonomy — :class:`WorkerCrash` (a work unit's
  attempt raised), :class:`WorkerTimeout` (an attempt missed its
  deadline) and the terminal :class:`PartitionFailure` — every
  instance carries the partition label(s), multi-source tags and
  attempt count, so a failure report is attributable without log
  spelunking;
* a :class:`RetryPolicy` (attempt budget, per-attempt timeout,
  exponential backoff) carried by
  :class:`~repro.matching.executor.scheduler.ExecutionSettings`, and
  the ``on_error`` modes (:data:`ON_ERROR_MODES`) that resolve a work
  unit once its budget is spent —

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
      prefer serving the healthy partitions over failing whole;
* cooperative deadlines: the engine's chunk loop calls
  :func:`check_deadline` at every chunk boundary, and a lapsed attempt
  raises :class:`DeadlineExceeded`, which the engine classifies as a
  :class:`WorkerTimeout`.  Only the degraded re-execution runs
  deadline-free: it is the run's last resort and must complete;
* the fault-injection seam (:func:`set_fault_hook` /
  :func:`fault_hook`) that :mod:`repro.testing.faults` installs its
  hooks through.

Every recovery is *observable*: retries, degradations and failures
increment report counters and emit
:class:`~repro.matching.executor.progress.FaultEvent` objects, so a
run can never degrade silently (the chaos CI job pins exactly this).
With the default policy (one attempt, no timeout) and
``on_error="raise"`` the engine engages no recovery: each task's one
attempt runs bare, its exception propagates unchanged, with its own
type, and nothing is recorded.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

#: How an exhausted work unit is resolved.
ON_ERROR_MODES = ("raise", "degrade", "skip")


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
    the engine.
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


#: Test seam for deterministic fault injection (see
#: :mod:`repro.testing.faults`).  Consulted once per attempt with the
#: attempt number and the flattened pairs of the task — ``None`` (the
#: production default) costs nothing.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or with ``None`` clear) the fault-injection hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def fault_hook():
    """The installed fault-injection hook, or ``None``.

    Read through a function (not a ``from … import``) so callers always
    see the live module state :func:`set_fault_hook` mutates.
    """
    return _FAULT_HOOK


__all__ = [
    "ON_ERROR_MODES",
    "DeadlineExceeded",
    "ExecutionFault",
    "PartitionFailure",
    "RetryPolicy",
    "WorkerCrash",
    "WorkerTimeout",
    "check_deadline",
    "fault_hook",
    "set_fault_hook",
]
