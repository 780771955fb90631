"""The execution engine: schedule and decide a candidate plan.

Everything between *planning* (:func:`repro.reduction.plan.plan_candidates`)
and the per-pair decision (:meth:`XTupleDecisionProcedure.decide
<repro.matching.engine.XTupleDecisionProcedure.decide>`) lives here.
:class:`ExecutionEngine` consumes a
:class:`~repro.reduction.plan.CandidatePlan` over any
:class:`~repro.pdb.storage.XTupleStore` and yields one
:class:`~repro.matching.executor.results.DetectionResult` slice per
partition, in plan order, bitwise identical to the serial seed
pipeline.  Every run is decided in-process, in one loop:

1. **Packed tasks.**  Every partition is one work unit, taken whole;
   without a recovery budget consecutive partitions are packed, in
   plan order, into tasks of at most ``chunk_size`` pairs, so a run of
   small blocks is decided by one batch per chunk instead of one per
   block.
2. **Attempts.**  An attempt captures the deadline, consults the fault
   hook (:func:`~repro.matching.executor.faults.set_fault_hook`) and
   decides the task with one working-set fetch and one
   :meth:`~repro.matching.engine.XTupleDecisionProcedure.decide_batch`
   call per chunk, checking the deadline at every chunk boundary.
   With the default :class:`~repro.matching.executor.faults.RetryPolicy`
   (one attempt, no deadline) and ``on_error="raise"`` every task gets
   exactly one attempt, and its exception propagates unchanged.  Under
   a recovery budget every partition is its own task and goes through
   the retry → degrade/skip/raise loop
   (:meth:`ExecutionEngine._replay`), so faults stay isolated per
   partition and every attempt a fault hook sees is recorded.
3. **Plan-order emission.**  Tasks finish in plan order, so each
   partition's decisions are emitted as its own slice as soon as its
   task returns; a partition resolved terminally is dropped whole.

A pair's decision is a pure function of its two x-tuples and the
configured procedure (similarity caches memoize deterministic values),
so packing changes how work is batched, never a result.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from repro.audit.manifest import status_counts
from repro.matching.engine import CodedView, XTupleDecisionProcedure
from repro.matching.executor.faults import (
    ON_ERROR_MODES,
    DeadlineExceeded,
    ExecutionFault,
    PartitionFailure,
    RetryPolicy,
    WorkerCrash,
    WorkerTimeout,
    check_deadline,
    fault_hook,
)
from repro.matching.executor.progress import (
    ExecutionReport,
    FaultEvent,
    FaultObserver,
    PartitionProgress,
    ProgressObserver,
)
from repro.matching.executor.results import DetectionResult, slice_result
from repro.pdb.storage import fetch_tuples
from repro.reduction.plan import CandidatePartition, CandidatePlan
from repro.similarity.kernels import resolve_kernel

#: Default number of candidate pairs decided per batch.  Large enough to
#: amortize the fixed numpy cost of each batched decide
#: (:meth:`~repro.matching.engine.XTupleDecisionProcedure.decide_batch`
#: looks up each chunk's distinct element pairs once), small enough
#: that per-chunk result lists never hold more than a sliver of a run.
DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class ExecutionSettings:
    """One detection run's execution knobs (validated on construction).

    Parameters mirror :meth:`DuplicateDetector.detect
    <repro.matching.pipeline.DuplicateDetector.detect>`.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE
    keep_derivations: bool = True
    keep_compared_pairs: bool = True
    #: Edit kernel the run's procedure was configured with (``"fast"``
    #: or ``"python"``; ``None`` reads ``"fast"``).  Informational at
    #: the engine level — the detector facade clones the procedure
    #: before constructing the engine — but validated here so a typo
    #: fails loudly.
    kernel_backend: str = "fast"
    #: Recovery budget of every attempt (attempts / per-attempt
    #: timeout / backoff).  The default policy never retries and sets
    #: no deadline, which — together with ``on_error="raise"`` — lets
    #: an attempt's exception propagate unchanged.
    retry: RetryPolicy = RetryPolicy()
    #: How a work unit that exhausts the retry budget is resolved:
    #: ``"raise"`` aborts with a ``PartitionFailure``, ``"degrade"``
    #: re-executes it without fault hook or deadline (bitwise-identical),
    #: ``"skip"`` drops the unit's partitions and records the failures
    #: in ``ExecutionReport.failures``.
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        object.__setattr__(
            self, "kernel_backend", resolve_kernel(self.kernel_backend)
        )
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error {self.on_error!r}; "
                f"expected one of {ON_ERROR_MODES}"
            )


def prewarm_plan(matcher, relation, plan: CandidatePlan) -> tuple[int, bool]:
    """Warm nothing: in-process runs fill the caches as they decide.

    Kept by name because the end-to-end benchmark's tracer lists it as
    its ``prewarm`` layer.  Returns ``(entries stored, complete)``:
    always ``(0, True)``.
    """
    return 0, True


#: A packed task: ``(partition index, pairs)`` per partition, in plan
#: order.
_Task = list[tuple[int, tuple[tuple[str, str], ...]]]


class ExecutionEngine:
    """Schedules and decides one candidate plan.

    Parameters
    ----------
    procedure:
        The configured Figure-6 decision procedure (possibly a
        floor-pruned clone).
    settings:
        Execution knobs; see :class:`ExecutionSettings`.
    observer:
        Optional per-partition progress callback
        (:data:`~repro.matching.executor.progress.ProgressObserver`).
    fault_observer:
        Optional recovery-action callback
        (:data:`~repro.matching.executor.progress.FaultObserver`),
        called on every retry, degradation and terminal failure.
    """

    def __init__(
        self,
        procedure: XTupleDecisionProcedure,
        settings: ExecutionSettings | None = None,
        *,
        observer: ProgressObserver | None = None,
        fault_observer: FaultObserver | None = None,
    ) -> None:
        self._procedure = procedure
        self._settings = settings if settings is not None else ExecutionSettings()
        self._observer = observer
        self._fault_observer = fault_observer
        self.report = ExecutionReport()

    @property
    def settings(self) -> ExecutionSettings:
        """The engine's execution knobs."""
        return self._settings

    def execute(
        self, relation, plan: CandidatePlan, view: CodedView | None = None
    ) -> Iterator[DetectionResult]:
        """Yield one result slice per partition, in plan order.

        Packed tasks of consecutive partitions (at most ``chunk_size``
        pairs each, one batch per chunk) are decided in plan order,
        every batch gathering from one
        :class:`~repro.matching.engine.CodedView`: *view*, which a
        session keeps across its refreshes, or else one made for the
        run.  Each partition's decisions are emitted as its own slice;
        every fetch covers at most one chunk's working set.  Without a
        recovery budget — the policy neither retries nor times out and
        ``on_error`` is ``"raise"`` — each task makes one attempt and
        its exception propagates unchanged, whatever the packing.
        Otherwise nothing is packed: each partition is decided alone
        through :meth:`_replay`, so the run records one fault per failed
        attempt, and a stalled attempt waits out its deadline once.
        """
        settings = self._settings
        report = self.report
        report.partitions = len(plan.partitions)
        report.total_pairs = plan.total_pairs
        report.kernel_backend = settings.kernel_backend
        partitions = plan.partitions
        size = plan.relation_size
        keep = settings.keep_compared_pairs
        if view is None:
            view = CodedView(self._procedure.matcher)
        if settings.retry.supervises or settings.on_error != "raise":
            outcomes = (
                (index, self._replay(relation, partitions, index, view))
                for index in range(len(partitions))
            )
        else:
            outcomes = chain.from_iterable(
                self._attempt(relation, task, 1, view)
                for task in self._packed_tasks(partitions)
            )
        for index, decisions in outcomes:
            if decisions is None:
                continue
            partition = partitions[index]
            decisions = tuple(decisions)
            yield slice_result(partition, decisions, size, keep)
            report.decided_pairs += len(partition.pairs)
            report.completed_partitions += 1
            matches, possibles, unmatches = status_counts(decisions)
            report.decided_matches += matches
            report.decided_possibles += possibles
            report.decided_unmatches += unmatches
            if self._observer is not None:
                self._observer(
                    PartitionProgress(
                        label=partition.label,
                        pairs=len(partition.pairs),
                        index=report.completed_partitions - 1,
                        partitions=report.partitions,
                        decided_pairs=report.decided_pairs,
                        total_pairs=report.total_pairs,
                    )
                )

    def _packed_tasks(
        self, partitions: tuple[CandidatePartition, ...]
    ) -> list[_Task]:
        """Pack consecutive partitions, in plan order, into tasks.

        A task is closed *before* a partition would take it past
        ``chunk_size`` pairs, so packing never glues two partitions
        that would each fill most of a chunk into one over-long task;
        a partition larger than a chunk rides alone and is chunked by
        :meth:`_decide`.
        """
        chunk_size = self._settings.chunk_size
        tasks: list[_Task] = []
        task: _Task = []
        task_pairs = 0
        for index, partition in enumerate(partitions):
            pairs = partition.pairs
            if task and task_pairs + len(pairs) > chunk_size:
                tasks.append(task)
                task = []
                task_pairs = 0
            task.append((index, pairs))
            task_pairs += len(pairs)
        if task:
            tasks.append(task)
        return tasks

    def _attempt(self, relation, task: _Task, number: int, view) -> list:
        """One attempt of *task*: capture the attempt's deadline,
        consult the fault hook with the task's pairs (inside the
        deadline), then decide."""
        deadline = self._settings.retry.deadline()
        hook = fault_hook()
        if hook is not None:
            hook(number, [pair for _index, pairs in task for pair in pairs])
        return self._decide(relation, task, view, deadline)

    def _decide(
        self,
        relation,
        task: _Task,
        view: CodedView,
        deadline: float | None = None,
    ):
        """Decide one task chunk by chunk; ``[(index, decisions)]``.

        The partitions' pairs are decided as one concatenated sequence,
        one :meth:`~repro.matching.engine.XTupleDecisionProcedure.decide_batch`
        call per ``chunk_size`` pairs across partition boundaries, and
        the decisions are split back per partition — so a task packing
        many small partitions pays one batch set-up per chunk, not one
        per partition.  Each chunk loads its own working set as one
        batch (:func:`~repro.pdb.storage.fetch_tuples`), so residency
        stays bounded by ``chunk_size`` even when a plan degenerates to
        one partition spanning the whole relation.  Every batch gathers
        its tuples' rows, weights and codes from *view*, the run's or
        session's :class:`~repro.matching.engine.CodedView`, which
        encodes each tuple the first time a batch meets it and keeps
        codes only, so a tuple is encoded once, whatever the chunk
        size.  With a *deadline* every chunk boundary checks it, and a
        lapsed attempt raises
        :class:`~repro.matching.executor.faults.DeadlineExceeded`.
        """
        settings = self._settings
        chunk_size = settings.chunk_size
        pairs = list(chain.from_iterable(unit for _index, unit in task))
        decisions = []
        for start in range(0, len(pairs), chunk_size):
            check_deadline(deadline)
            chunk = pairs[start : start + chunk_size]
            working_set = fetch_tuples(
                relation, dict.fromkeys(chain.from_iterable(chunk))
            )
            decisions.extend(
                self._procedure.decide_batch(
                    [working_set[left] for left, _right in chunk],
                    [working_set[right] for _left, right in chunk],
                    settings.keep_derivations,
                    view,
                )
            )
        results = []
        offset = 0
        for index, unit in task:
            end = offset + len(unit)
            results.append((index, decisions[offset:end]))
            offset = end
        return results

    def _replay(self, relation, partitions, index: int, view):
        """Decide one partition alone within the recovery budget.

        Returns the decisions of ``partitions[index]``, or ``None`` once
        it is skipped.  Attempts count from 1.  An attempt that raises
        :class:`~repro.matching.executor.faults.DeadlineExceeded` is a
        :class:`~repro.matching.executor.faults.WorkerTimeout`, any
        other exception a
        :class:`~repro.matching.executor.faults.WorkerCrash`; it is
        retried after ``RetryPolicy.delay`` while the attempt budget
        lasts.  An exhausted partition is resolved per ``on_error``:
        ``"degrade"`` decides it once more without fault hook or
        deadline (if that raises too, the partition fails as a
        ``WorkerCrash``), ``"skip"`` records a
        :class:`~repro.matching.executor.faults.PartitionFailure`, and
        ``"raise"`` records it and raises it, chained to the fault.
        Every step is counted in :attr:`report` and announced to the
        fault observer.
        """
        settings = self._settings
        policy = settings.retry
        report = self.report
        partition = partitions[index]
        task = [(index, partition.pairs)]
        labels = (partition.label,)
        sources = partition.sources or ()
        attempt = 1
        while True:
            try:
                return self._attempt(relation, task, attempt, view)[0][1]
            except PartitionFailure:
                raise
            except Exception as raised:  # noqa: BLE001 — classified below
                error = raised
            fault: ExecutionFault
            if isinstance(error, DeadlineExceeded):
                report.worker_timeouts += 1
                fault = WorkerTimeout(
                    f"in-process execution exceeded its {policy.timeout}s "
                    "deadline at a chunk boundary",
                    partitions=labels,
                    sources=sources,
                    attempt=attempt,
                )
            else:
                report.worker_crashes += 1
                fault = WorkerCrash(
                    f"in-process execution raised {type(error).__name__}: "
                    f"{error}",
                    partitions=labels,
                    sources=sources,
                    attempt=attempt,
                )
            fault.__cause__ = error
            if attempt >= policy.max_attempts:
                break
            report.retried_dispatches += 1
            self._fault_event("retry", fault)
            delay = policy.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            attempt += 1
        if settings.on_error == "degrade":
            try:
                decisions = self._decide(relation, task, view)[0][1]
            except Exception as raised:  # noqa: BLE001 — terminal below
                error = raised
            else:
                report.degraded_tasks += 1
                self._fault_event("degraded", fault)
                return decisions
            fault = WorkerCrash(
                "degraded in-process re-execution raised "
                f"{type(error).__name__}: {error}",
                partitions=labels,
                sources=sources,
                attempt=attempt,
            )
            fault.__cause__ = error
        failure = PartitionFailure(
            f"partition {partition.label!r} failed after {attempt} "
            f"attempt(s): {fault}",
            partition=partition.label,
            sources=sources,
            attempt=attempt,
        )
        report.failures.append(failure)
        self._fault_event("failed", fault)
        if settings.on_error == "raise":
            raise failure from fault
        return None

    def _fault_event(self, kind: str, fault: ExecutionFault) -> None:
        """Announce one recovery action on *fault* to the fault observer."""
        if self._fault_observer is not None:
            self._fault_observer(
                FaultEvent(
                    kind=kind,
                    fault=fault.kind,
                    partitions=fault.partitions,
                    attempt=fault.attempt,
                    error=str(fault),
                )
            )


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ExecutionEngine",
    "ExecutionSettings",
    "prewarm_plan",
]
