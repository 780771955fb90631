"""Execution introspection: run reports and partition progress events.

Large detections are opaque without this: a caller streaming a
million-pair run wants to know how far along it is, how its decisions
split over η, and which faults it recovered from.  The engine fills one
:class:`ExecutionReport` per run (exposed as
``DuplicateDetector.last_report``) and, when an observer callable is
installed, emits one :class:`PartitionProgress` event per completed
partition slice — cheap enough to leave on in production.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PartitionProgress:
    """One completed partition slice of a running detection."""

    #: Label of the completed partition.
    label: str
    #: Pairs the partition contributed.
    pairs: int
    #: Index of the partition in plan order (0-based).
    index: int
    #: Total partitions in the plan.
    partitions: int
    #: Pairs decided so far, including this partition.
    decided_pairs: int
    #: Total pairs the plan will decide.
    total_pairs: int

    @property
    def fraction(self) -> float:
        """Completed fraction of the run's pairs (0.0 – 1.0)."""
        if self.total_pairs <= 0:
            return 1.0
        return self.decided_pairs / self.total_pairs


#: Observer signature: called once per completed partition slice, in
#: plan order.
ProgressObserver = Callable[[PartitionProgress], None]


@dataclass(frozen=True)
class FaultEvent:
    """One recovery action of a supervised run.

    Emitted by the engine (see :mod:`repro.matching.executor.faults`
    for the fault model) whenever a failed attempt is retried
    (``kind="retry"``), re-executed without fault hook or deadline
    (``kind="degraded"``) or resolved terminally (``kind="failed"``) —
    the observable trail that makes silent degradation impossible.
    """

    #: Recovery action: ``"retry"``, ``"degraded"`` or ``"failed"``.
    kind: str
    #: Taxonomy tag of the underlying fault (``"crash"``/``"timeout"``).
    fault: str
    #: Labels of the plan partitions the faulting work unit touched.
    partitions: tuple[str, ...]
    #: Attempt (1-based) that observed the fault.
    attempt: int
    #: Human-readable description of the underlying error.
    error: str


#: Observer signature for recovery actions: called from the process
#: driving the execution, once per retry/degradation/terminal failure.
FaultObserver = Callable[[FaultEvent], None]


@dataclass
class ExecutionReport:
    """What one execution did: plan shape, decisions and fault recoveries.

    Counters are filled as the run progresses (a streamed run's report
    is complete only once the slice iterator is exhausted).
    """

    #: Partitions in the executed plan.
    partitions: int = 0
    #: Candidate pairs in the executed plan.
    total_pairs: int = 0
    #: Edit kernel recorded in the run's settings (``"fast"`` or
    #: ``"python"``).
    kernel_backend: str = ""
    #: Pairs decided so far.
    decided_pairs: int = 0
    #: Decisions so far with η = m (declared duplicates).
    decided_matches: int = 0
    #: Decisions so far with η = p (clerical review).
    decided_possibles: int = 0
    #: Decisions so far with η = u (declared distinct).
    decided_unmatches: int = 0
    #: Partition slices yielded so far.
    completed_partitions: int = 0
    #: Attempts that raised.
    worker_crashes: int = 0
    #: Attempts that missed their deadline.
    worker_timeouts: int = 0
    #: Failed attempts that were retried within the retry budget.
    retried_dispatches: int = 0
    #: Exhausted work units re-executed without fault hook or deadline
    #: (``on_error="degrade"``).
    degraded_tasks: int = 0
    #: Terminal ``PartitionFailure`` objects, one per failed partition
    #: (``on_error="skip"``, or degradation that itself failed).
    failures: list = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """Whether the run saw faults but still decided every partition."""
        return (
            self.worker_crashes + self.worker_timeouts > 0
            and not self.failures
        )

    def summary(self) -> str:
        """One log-friendly line describing the run."""
        parts = [
            f"{self.completed_partitions}/{self.partitions} partitions",
            f"{self.decided_pairs}/{self.total_pairs} pairs",
            f"eta m={self.decided_matches} p={self.decided_possibles} "
            f"u={self.decided_unmatches}",
        ]
        faults = self.worker_crashes + self.worker_timeouts
        if faults:
            parts.append(
                f"{faults} faults ({self.worker_crashes} crashes, "
                f"{self.worker_timeouts} timeouts; "
                f"{self.retried_dispatches} retried, "
                f"{self.degraded_tasks} degraded, "
                f"{len(self.failures)} failed)"
            )
        return ", ".join(parts)


__all__ = [
    "ExecutionReport",
    "FaultEvent",
    "FaultObserver",
    "PartitionProgress",
    "ProgressObserver",
]
