"""The execution engine: schedule and decide a candidate plan.

Everything between *planning* (:func:`repro.reduction.plan.plan_candidates`)
and the per-pair decision (:meth:`XTupleDecisionProcedure.decide
<repro.matching.engine.XTupleDecisionProcedure.decide>`) lives here.
:class:`ExecutionEngine` consumes a
:class:`~repro.reduction.plan.CandidatePlan` over any
:class:`~repro.pdb.storage.XTupleStore` and yields one
:class:`~repro.matching.executor.results.DetectionResult` slice per
partition, in plan order, bitwise identical to the serial seed
pipeline.  Every run is decided in-process and takes the same three
steps:

1. **Packed tasks.**  Every partition is one work unit, taken whole;
   consecutive partitions are packed, in plan order, into tasks of at
   most ``chunk_size`` pairs, so a run of small blocks is decided by
   one batch per chunk instead of one per block.
2. **One supervised runner.**  With the default :class:`RetryPolicy`
   (one attempt, no deadline) and ``on_error="raise"`` every task gets
   exactly one attempt, and its exception propagates unchanged.  Under
   a recovery budget a task packing several partitions first makes one
   unsupervised attempt; if that raises, nothing is recorded and each
   of its partitions is replayed as its own task through
   :func:`~repro.matching.executor.faults.run_supervised_inline`, so
   faults stay isolated per partition exactly as without packing.
3. **Plan-order emission.**  Tasks finish in plan order, so each
   partition's decisions are emitted as its own slice as soon as its
   task returns; a partition resolved terminally is dropped whole.

A pair's decision is a pure function of its two x-tuples and the
configured procedure (similarity caches memoize deterministic values),
so packing changes how work is batched, never a result.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.matching.engine import XTupleDecisionProcedure
from repro.matching.executor.faults import (
    ON_ERROR_MODES,
    RetryPolicy,
    run_supervised_inline,
)
from repro.matching.executor.progress import (
    ExecutionReport,
    FaultObserver,
    ProgressObserver,
    ProgressTracker,
)
from repro.matching.executor.results import DetectionResult, slice_result
from repro.matching.executor.workers import decide_task, fault_hook
from repro.reduction.plan import CandidatePartition, CandidatePlan
from repro.similarity.kernels import resolve_kernel

#: Default number of candidate pairs decided per batch.  Large enough to
#: amortize the per-batch encoding of the batched decide
#: (:meth:`~repro.matching.engine.XTupleDecisionProcedure.decide_batch`
#: encodes each chunk's values and looks up its distinct element pairs
#: once), small enough that per-chunk result lists never hold more than
#: a sliver of a run.
DEFAULT_CHUNK_SIZE = 4096


@dataclass(frozen=True)
class ExecutionSettings:
    """One detection run's execution knobs (validated on construction).

    Parameters mirror :meth:`DuplicateDetector.detect
    <repro.matching.pipeline.DuplicateDetector.detect>`.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE
    #: Retired: every run executes in-process, so only ``1`` is
    #: accepted; any other value (``None`` included) raises.
    n_jobs: int = 1
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
        if self.n_jobs != 1:
            raise ValueError(
                f"n_jobs={self.n_jobs!r}: n_jobs is retired — the process "
                "pool was removed and every run executes in-process; "
                "pass n_jobs=1 or omit it"
            )
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
        self.report = ExecutionReport()
        self._tracker = ProgressTracker(self.report, observer, fault_observer)

    @property
    def settings(self) -> ExecutionSettings:
        """The engine's execution knobs."""
        return self._settings

    def execute(
        self, relation, plan: CandidatePlan
    ) -> Iterator[DetectionResult]:
        """Yield one result slice per partition, in plan order.

        Packed tasks of consecutive partitions (at most ``chunk_size``
        pairs each, one batch per chunk) are decided in plan order, and
        each partition's decisions are emitted as its own slice; every
        fetch covers at most one chunk's working set.
        """
        settings = self._settings
        self._tracker.start(plan, n_jobs=settings.n_jobs)
        self.report.kernel_backend = settings.kernel_backend
        partitions = plan.partitions
        size = plan.relation_size
        keep = settings.keep_compared_pairs
        for results in self._run_inline(relation, partitions):
            for index, decisions in results:
                if decisions is None:
                    continue
                partition = partitions[index]
                decisions = tuple(decisions)
                yield slice_result(partition, decisions, size, keep)
                self._tracker.slice_done(partition, decisions)

    def _packed_tasks(
        self, partitions: tuple[CandidatePartition, ...]
    ) -> list[list[tuple[int, tuple[tuple[str, str], ...]]]]:
        """Pack consecutive partitions, in plan order, into tasks of
        ``(partition index, pairs)``.

        A task is closed *before* a partition would take it past
        ``chunk_size`` pairs, so packing never glues two partitions
        that would each fill most of a chunk into one over-long task;
        a partition larger than a chunk rides alone and is chunked by
        :func:`decide_task`.
        """
        chunk_size = self._settings.chunk_size
        tasks: list[list[tuple[int, tuple[tuple[str, str], ...]]]] = []
        task: list[tuple[int, tuple[tuple[str, str], ...]]] = []
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

    def _decide_task(
        self, relation, task, deadline: float | None = None
    ) -> list:
        """Decide one task in-process (see :func:`decide_task`)."""
        settings = self._settings
        return decide_task(
            self._procedure,
            relation,
            task,
            settings.keep_derivations,
            settings.chunk_size,
            deadline,
        )

    def _attempt(self, relation, task, number: int) -> list:
        """One attempt of *task*: capture the attempt's deadline,
        consult the fault hook with the task's pairs (inside the
        deadline), then decide."""
        deadline = self._settings.retry.deadline()
        hook = fault_hook()
        if hook is not None:
            hook(number, [pair for _index, pairs in task for pair in pairs])
        return self._decide_task(relation, task, deadline)

    def _run_inline(
        self, relation, partitions: tuple[CandidatePartition, ...]
    ) -> Iterator[list]:
        """Run every packed task, in order, under the attempt budget.

        Yields each task's ``[(partition index, decisions | None)]``.
        Without recovery configured — the policy neither retries nor
        times out and ``on_error`` is ``"raise"`` — each task makes one
        attempt and its exception propagates unchanged, whatever the
        packing.  Otherwise a task of several partitions first makes
        one packed attempt
        (attempt 1, fault hook and deadline included); if it raises,
        nothing is recorded and every partition is replayed as its own
        task through
        :func:`~repro.matching.executor.faults.run_supervised_inline`
        from attempt 1.  Fault hooks are pure functions of the attempt
        and the pairs, so each partition then sees exactly the attempts
        — and the run records exactly the retries, degradations and
        failures — of an unpacked run.  ``RetryPolicy.timeout`` is
        honored cooperatively: the chunk loop checks each attempt's
        deadline at every chunk boundary.  The degraded fallback is
        hook- and deadline-free.
        """
        settings = self._settings
        unsupervised = (
            not settings.retry.supervises and settings.on_error == "raise"
        )
        for task in self._packed_tasks(partitions):
            if unsupervised:
                yield self._attempt(relation, task, 1)
                continue
            if len(task) > 1:
                try:
                    results = self._attempt(relation, task, 1)
                except Exception:  # noqa: BLE001 — replayed per partition
                    results = None
                if results is not None:
                    yield results
                    continue
            for index, pairs in task:
                single = [(index, pairs)]
                outcome = run_supervised_inline(
                    lambda number, single=single: self._attempt(
                        relation, single, number
                    ),
                    fallback=lambda single=single: self._decide_task(
                        relation, single
                    ),
                    partitions=(partitions[index],),
                    policy=settings.retry,
                    on_error=settings.on_error,
                    tracker=self._tracker,
                )
                yield outcome if outcome is not None else [(index, None)]


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ExecutionEngine",
    "ExecutionSettings",
    "prewarm_plan",
]
