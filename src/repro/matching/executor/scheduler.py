"""The execution engine: schedule and decide a candidate plan.

Everything between *planning* (:func:`repro.reduction.plan.plan_candidates`)
and the per-pair decision (:meth:`XTupleDecisionProcedure.decide
<repro.matching.engine.XTupleDecisionProcedure.decide>`) lives here.
:class:`ExecutionEngine` consumes a
:class:`~repro.reduction.plan.CandidatePlan` over any
:class:`~repro.pdb.storage.XTupleStore` and yields one
:class:`~repro.matching.executor.results.DetectionResult` slice per
partition, in plan order, bitwise identical to the serial seed
pipeline.  Every run takes the same four steps:

1. **Prewarm / freeze.**  Before forking, the matcher's shared
   similarity caches are warmed from the plan's candidate pairs and
   frozen read-only, so every worker shares the parent's table
   copy-on-write.  This happens when a pool is used and no partition
   exceeds the work-unit budget; a skewed plan skips it, since its
   sub-key units keep worker working sets coherent and warming would
   serialize work the workers can do in parallel.
2. **Work units.**  In-process runs (``n_jobs == 1``) take every
   partition whole and pack consecutive ones, in plan order, into
   tasks of at most ``chunk_size`` pairs, so a run of small blocks is
   decided by one batch per chunk instead of one per block.  A pool
   subdivides partitions exceeding the work-unit budget
   (:attr:`ExecutionSettings.unit_budget`) — by the reducer's sub-key
   ``split_partition`` hook
   (:class:`~repro.reduction.plan.SplittableReducer`) when available,
   by contiguous row-banding otherwise — and packs the units into
   dispatch tasks *largest first*, so an idle worker always steals the
   biggest remaining unit and one giant block no longer serializes the
   run.
3. **One supervised runner.**  Tasks run through
   :func:`~repro.matching.executor.faults.run_supervised_inline`
   in-process or the
   :class:`~repro.matching.executor.faults.SupervisedDispatcher` over a
   pool.  An in-process task packing several partitions first makes
   one unsupervised attempt; if that raises, nothing is recorded and
   each of its partitions is replayed as its own supervised task, so
   faults stay isolated per partition exactly as without packing.
   With the default :class:`RetryPolicy` (one attempt, no deadline)
   and ``on_error="raise"`` an attempt's exception propagates
   unchanged.
4. **One collector.**  Each partition's decisions are reassembled into
   its original pair order and emitted in plan order; a partition of a
   terminally failed task is dropped whole.

A pair's decision is a pure function of its two x-tuples and the
configured procedure (similarity caches memoize deterministic values),
so scheduling can change the order of work but never a result — only
the emission order could, and reassembly pins that to plan order.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.matching.engine import XTupleDecision, XTupleDecisionProcedure
from repro.matching.executor.faults import (
    ON_ERROR_MODES,
    RetryPolicy,
    SupervisedDispatcher,
    run_supervised_inline,
)
from repro.matching.executor.progress import (
    ExecutionReport,
    FaultObserver,
    ProgressObserver,
    ProgressTracker,
)
from repro.matching.executor.results import DetectionResult, slice_result
from repro.matching.executor.workers import (
    decide_supervised,
    decide_task,
    fault_hook,
    fork_context,
    init_worker,
)
from repro.reduction.plan import (
    CandidatePartition,
    CandidatePlan,
    DEFAULT_PARTITION_PAIRS,
    band_partition,
    partition_value_pairs,
)
from repro.similarity.kernels import resolve_kernel

#: Default number of candidate pairs decided per batch.  Large enough to
#: amortize dispatch overhead (and IPC when fanning out) and the
#: per-batch encoding of the batched decide
#: (:meth:`~repro.matching.engine.XTupleDecisionProcedure.decide_batch`
#: encodes each chunk's values and looks up its distinct element pairs
#: once), small enough that per-chunk result lists never hold more than
#: a sliver of a run.
DEFAULT_CHUNK_SIZE = 4096

#: Total pairwise-similarity budget for cache pre-warming, across all
#: partitions and attributes of one detection run.  Blocking plans warm
#: completely well below this; the bound exists so an unstructured plan
#: (full comparison) cannot spend the whole run warming in the parent.
PREWARM_PAIR_BUDGET = 200_000


@dataclass(frozen=True)
class ExecutionSettings:
    """One detection run's execution knobs (validated on construction).

    Parameters mirror :meth:`DuplicateDetector.detect
    <repro.matching.pipeline.DuplicateDetector.detect>`.
    """

    chunk_size: int = DEFAULT_CHUNK_SIZE
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
    #: re-executes in-process (bitwise-identical, merely slower),
    #: ``"skip"`` drops the unit's partitions and records the failures
    #: in ``ExecutionReport.failures``.
    on_error: str = "raise"
    #: Retained-cache mode (incremental sessions): the caller keeps the
    #: matcher's similarity caches warm *across* runs, so the engine
    #: must not spend the run re-prewarming them, but still freezes
    #: them read-only around a fork (restoring afterwards) so workers
    #: share the retained tables copy-on-write exactly like a freshly
    #: warmed run would.
    retain_caches: bool = False

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1 (or None)")
        object.__setattr__(
            self, "kernel_backend", resolve_kernel(self.kernel_backend)
        )
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"unknown on_error {self.on_error!r}; "
                f"expected one of {ON_ERROR_MODES}"
            )

    @property
    def unit_budget(self) -> int:
        """A pooled run's work-unit budget (candidate pairs).

        Partitions above it are subdivided.  At most one chunk, and at
        most the window-family planning target
        (:data:`~repro.reduction.plan.DEFAULT_PARTITION_PAIRS`): a unit
        that size amortizes dispatch but cannot monopolize a worker.
        """
        return min(self.chunk_size, DEFAULT_PARTITION_PAIRS)

    def should_prewarm(self, plan: CandidatePlan) -> bool:
        """Whether to warm the caches in the parent before running *plan*.

        Warm exactly when forking over a plan no partition of which
        exceeds the work-unit budget: a plan that needs subdivision
        keeps each worker's working set coherent through its sub-key
        units, and warming it would serialize similarity work the
        workers can do in parallel.  Retained-cache runs never
        re-prewarm: the session already holds the warm tables.
        """
        if self.retain_caches:
            return False
        budget = self.unit_budget
        return self.n_jobs > 1 and all(
            len(partition) <= budget for partition in plan
        )


def prewarm_plan(
    matcher,
    relation,
    plan: CandidatePlan,
    *,
    budget: int = PREWARM_PAIR_BUDGET,
) -> tuple[int, bool]:
    """Warm the matcher's caches from every partition's candidate pairs.

    **Pair-aware**: each partition contributes only the attribute-value
    combinations its candidate tuple pairs can actually compare
    (:func:`~repro.reduction.plan.partition_value_pairs`), not the full
    pairwise square of its vocabulary — window-family plans over-warm
    by roughly ``|span| / (2·(w−1))`` under the square.  The collected
    batches are scored through
    :meth:`~repro.matching.comparison.AttributeMatcher.warm_pairs`,
    which hands whole batches to the fast kernel's vectorized scorer
    when one is configured (encode once, score in bulk) and loops per
    pair otherwise.  The default *budget* bounds the parent-side warm
    of one run; a partition whose combinations exceed what remains
    leaves the warm incomplete.

    Returns ``(entries stored, complete)`` where *complete* means every
    partition's candidate combinations fit the budget — the
    precondition for freezing the caches read-only around a fork.
    """
    if not matcher.cache_stats():
        return 0, False
    total_warmed = 0
    complete = True
    remaining = budget
    for partition in plan:
        if remaining <= 0:
            complete = False
            break
        value_pairs, truncated = partition_value_pairs(
            relation, partition, limit=remaining + 1
        )
        warmed, examined, partition_complete = matcher.warm_pairs(
            value_pairs, budget=remaining
        )
        total_warmed += warmed
        remaining -= max(examined, 1)
        complete = complete and partition_complete and not truncated
    return total_warmed, complete


def subdivide_partition(
    splitter,
    relation,
    partition: CandidatePartition,
    *,
    max_pairs: int,
    report: ExecutionReport | None = None,
) -> list[CandidatePartition]:
    """Exact subdivision of one oversized partition into work units.

    Prefers the reducer's sub-key hook
    (:class:`~repro.reduction.plan.SplittableReducer`), validating that
    the returned sub-partitions cover the partition's pairs exactly
    once; any sub-key group still exceeding the budget — and the whole
    partition when no hook applies — is banded contiguously.
    """
    subs: list[CandidatePartition] | None = None
    split_hook = getattr(splitter, "split_partition", None)
    if callable(split_hook):
        raw = split_hook(relation, partition, max_pairs=max_pairs)
        if raw is not None:
            subs = list(raw)
            _check_exact_cover(partition, subs)
            if report is not None and len(subs) > 1:
                report.subkey_split_partitions += 1
    if subs is None:
        subs = [partition]
    units: list[CandidatePartition] = []
    banded = False
    for sub in subs:
        if len(sub) > max_pairs:
            pieces = band_partition(sub, max_pairs)
            banded = banded or len(pieces) > 1
            units.extend(pieces)
        else:
            units.append(sub)
    if report is not None:
        report.oversized_partitions += 1
        if banded:
            report.banded_partitions += 1
    return units


def _check_exact_cover(
    partition: CandidatePartition, subs: Sequence[CandidatePartition]
) -> None:
    total = sum(len(sub) for sub in subs)
    covered = {pair for sub in subs for pair in sub.pairs}
    if total != len(partition.pairs) or covered != set(partition.pairs):
        raise ValueError(
            f"split_partition produced an inexact cover of "
            f"{partition.label!r}: {total} pairs across {len(subs)} "
            f"sub-partitions covering {len(covered)} distinct of "
            f"{len(partition.pairs)} original pairs"
        )


class ExecutionEngine:
    """Schedules and decides one candidate plan.

    Parameters
    ----------
    procedure:
        The configured Figure-6 decision procedure (possibly a
        floor-pruned clone).
    settings:
        Execution knobs; see :class:`ExecutionSettings`.
    splitter:
        Optional provider of the ``split_partition`` sub-key hook —
        normally the detector's reducer.  Only consulted by pooled runs,
        for partitions over the work-unit budget.
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
        splitter=None,
        observer: ProgressObserver | None = None,
        fault_observer: FaultObserver | None = None,
    ) -> None:
        self._procedure = procedure
        self._settings = settings if settings is not None else ExecutionSettings()
        self._splitter = splitter
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

        In-process runs decide packed tasks of consecutive partitions
        (at most ``chunk_size`` pairs each, one batch per chunk), pooled
        runs dispatch stolen work units; either way each partition's
        decisions are reassembled and emitted as its own slice, and
        every fetch covers at most one chunk's working set.
        """
        settings = self._settings
        self._tracker.start(plan, n_jobs=settings.n_jobs)
        self.report.kernel_backend = settings.kernel_backend
        if not plan.partitions:
            return
        newly_frozen = self._prewarm(relation, plan)
        try:
            unit_pairs, owners = self._work_units(relation, plan)

            def partitions_of(task) -> list[CandidatePartition]:
                covered = dict.fromkeys(owners[unit] for unit, _pairs in task)
                return [plan.partitions[i] for i in covered]

            if settings.n_jobs == 1:
                runner = self._run_inline(
                    relation, self._packed_tasks(unit_pairs), partitions_of
                )
            else:
                tasks = self._stealing_tasks(unit_pairs)
                self.report.dispatch_tasks = len(tasks)
                runner = self._run_pool(relation, tasks, partitions_of)
            yield from self._collect(plan, runner, unit_pairs, owners)
        finally:
            # Restore only the freezes this run established; caches the
            # caller froze beforehand stay frozen.
            for cache in newly_frozen:
                cache.thaw()

    def _prewarm(self, relation, plan: CandidatePlan) -> list:
        """Warm and freeze the caches as the settings resolve for *plan*.

        Returns the caches this run froze, for thawing afterwards.
        """
        settings = self._settings
        matcher = self._procedure.matcher
        if settings.should_prewarm(plan):
            warmed, complete = prewarm_plan(matcher, relation, plan)
            self.report.prewarmed_entries = warmed
            if complete:
                self.report.caches_frozen = True
                return matcher.freeze_caches()
        elif settings.retain_caches and settings.n_jobs > 1:
            # Retained-cache session: tables were warmed by earlier runs
            # and live across calls — freeze them read-only around the
            # fork so workers share them copy-on-write, thaw after.
            newly_frozen = matcher.freeze_caches()
            self.report.caches_frozen = bool(newly_frozen)
            return newly_frozen
        return []

    def _work_units(
        self, relation, plan: CandidatePlan
    ) -> tuple[list[tuple[tuple[str, str], ...]], list[int]]:
        """The plan's work units: ``(unit pair tuples, unit → partition
        index)``, unit ids being list positions.

        In-process runs keep every partition whole, in plan order — the
        serial fetch order and tuple-cache behaviour — for
        :meth:`_packed_tasks` to pack into chunk-sized tasks.  A pooled
        run subdivides each partition over the work-unit budget
        (:attr:`ExecutionSettings.unit_budget`,
        :func:`subdivide_partition`).
        """
        settings = self._settings
        budget = settings.unit_budget
        unit_pairs: list[tuple[tuple[str, str], ...]] = []
        owners: list[int] = []
        for index, partition in enumerate(plan.partitions):
            if settings.n_jobs == 1 or len(partition) <= budget:
                units = [partition]
            else:
                units = subdivide_partition(
                    self._splitter,
                    relation,
                    partition,
                    max_pairs=budget,
                    report=self.report,
                )
            for unit in units:
                unit_pairs.append(unit.pairs)
                owners.append(index)
        self.report.work_units = len(unit_pairs)
        return unit_pairs, owners

    def _packed_tasks(
        self, unit_pairs: list[tuple[tuple[str, str], ...]]
    ) -> list[list[tuple[int, tuple[tuple[str, str], ...]]]]:
        """Pack consecutive units, in plan order, into in-process tasks.

        A task is closed *before* a unit would take it past
        ``chunk_size`` pairs, so packing never glues two partitions
        that would each fill most of a chunk into one over-long task;
        a unit larger than a chunk rides alone and is chunked by
        :func:`decide_task`.
        """
        chunk_size = self._settings.chunk_size
        tasks: list[list[tuple[int, tuple[tuple[str, str], ...]]]] = []
        task: list[tuple[int, tuple[tuple[str, str], ...]]] = []
        task_pairs = 0
        for unit, pairs in enumerate(unit_pairs):
            if task and task_pairs + len(pairs) > chunk_size:
                tasks.append(task)
                task = []
                task_pairs = 0
            task.append((unit, pairs))
            task_pairs += len(pairs)
        if task:
            tasks.append(task)
        return tasks

    def _stealing_tasks(
        self, unit_pairs: list[tuple[tuple[str, str], ...]]
    ) -> list[list[tuple[int, tuple[tuple[str, str], ...]]]]:
        """Pack units into dispatch tasks, largest units first.

        Largest-first (LPT) dispatch through the pool's shared queue is
        what makes the stealing: whichever worker goes idle takes the
        biggest remaining unit, so the skewed block's sub-units spread
        across workers instead of queueing behind each other.  Units of
        a chunk's worth of pairs or more always ship alone — coalescing
        them would glue a skewed block's sub-units back together — and
        only smaller units are packed into ~chunk-sized tasks so tiny
        blocks don't pay one IPC round trip each.
        """
        chunk_size = self._settings.chunk_size
        order = sorted(
            range(len(unit_pairs)),
            key=lambda unit: (-len(unit_pairs[unit]), unit),
        )
        tasks: list[list[tuple[int, tuple[tuple[str, str], ...]]]] = []
        task: list[tuple[int, tuple[tuple[str, str], ...]]] = []
        task_pairs = 0
        for unit in order:
            size = len(unit_pairs[unit])
            if size >= chunk_size:
                tasks.append([(unit, unit_pairs[unit])])
                continue
            task.append((unit, unit_pairs[unit]))
            task_pairs += size
            if task_pairs >= chunk_size:
                tasks.append(task)
                task = []
                task_pairs = 0
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
        """One in-process attempt of *task*: capture the attempt's
        deadline, consult the fault hook with the task's pairs (inside
        the deadline), then decide."""
        deadline = self._settings.retry.deadline()
        hook = fault_hook()
        if hook is not None:
            hook(number, [pair for _unit, pairs in task for pair in pairs])
        return self._decide_task(relation, task, deadline)

    def _run_inline(
        self, relation, tasks, partitions_of
    ) -> Iterator[list]:
        """Run every task in-process, in order, under the attempt budget.

        Yields each task's ``[(unit, decisions | None)]``.  A task of
        several units first makes one packed attempt (attempt 1, fault
        hook and deadline included); if it raises, nothing is recorded
        and every unit is replayed as its own task through
        :func:`~repro.matching.executor.faults.run_supervised_inline`
        from attempt 1.  Fault hooks are pure functions of the attempt
        and the pairs, so each partition then sees exactly the attempts
        — and the run records exactly the retries, degradations and
        failures — of an unpacked run.  ``RetryPolicy.timeout`` is
        honored without a pool: the chunk loop checks each attempt's
        deadline at every chunk boundary.  The degraded fallback is
        hook- and deadline-free.
        """
        settings = self._settings
        for task in tasks:
            if len(task) > 1:
                try:
                    results = self._attempt(relation, task, 1)
                except Exception:  # noqa: BLE001 — replayed per unit
                    results = None
                if results is not None:
                    yield results
                    continue
            for unit, pairs in task:
                single = [(unit, pairs)]
                outcome = run_supervised_inline(
                    lambda number, single=single: self._attempt(
                        relation, single, number
                    ),
                    fallback=lambda single=single: self._decide_task(
                        relation, single
                    ),
                    partitions=partitions_of(single),
                    policy=settings.retry,
                    on_error=settings.on_error,
                    tracker=self._tracker,
                )
                yield outcome if outcome is not None else [(unit, None)]

    def _run_pool(
        self, relation, tasks, partitions_of
    ) -> Iterator[list]:
        """Dispatch every task to a forked pool under the attempt budget.

        Yields each task's ``[(unit, decisions | None)]`` in completion
        order.
        """
        settings = self._settings
        dispatcher = SupervisedDispatcher(
            policy=settings.retry,
            on_error=settings.on_error,
            tracker=self._tracker,
            task_partitions=lambda index: partitions_of(tasks[index]),
            fallback=lambda index: self._decide_task(relation, tasks[index]),
            max_outstanding=settings.n_jobs,
        )
        with fork_context().Pool(
            settings.n_jobs,
            initializer=init_worker,
            initargs=(
                self._procedure,
                relation,
                settings.keep_derivations,
                settings.chunk_size,
            ),
        ) as pool:
            for index, results in dispatcher.run(
                pool, decide_supervised, tasks
            ):
                yield (
                    results
                    if results is not None
                    else [(unit, None) for unit, _pairs in tasks[index]]
                )

    def _collect(
        self,
        plan: CandidatePlan,
        runner: Iterator[list],
        unit_pairs: list[tuple[tuple[str, str], ...]],
        owners: list[int],
    ) -> Iterator[DetectionResult]:
        """Regroup task results and emit partitions in plan order.

        Tasks finish in any order; each partition's decisions are
        reassembled into its original pair order, and finished
        partitions are buffered until every earlier partition has been
        yielded — scheduling reorders *work*, never *results*.  A
        ``None`` unit result marks a unit resolved terminally, which
        drops the partition it belongs to (a partition is either
        complete or absent, never truncated); the remaining partitions
        still emit in plan order.
        """
        size = plan.relation_size
        keep = self._settings.keep_compared_pairs
        remaining = [0] * len(plan.partitions)
        for index in owners:
            remaining[index] += 1
        pending: dict[int, dict[int, list[XTupleDecision]]] = {}
        ready: dict[int, tuple[XTupleDecision, ...] | None] = {}
        failed: set[int] = set()
        next_index = 0
        for results in runner:
            for unit, decisions in results:
                index = owners[unit]
                if decisions is None:
                    failed.add(index)
                else:
                    pending.setdefault(index, {})[unit] = decisions
                remaining[index] -= 1
                if remaining[index]:
                    continue
                buckets = pending.pop(index, None)
                ready[index] = (
                    None
                    if index in failed
                    else _reassemble(
                        plan.partitions[index], buckets, unit_pairs
                    )
                )
            while next_index in ready:
                decisions = ready.pop(next_index)
                partition = plan.partitions[next_index]
                if decisions is not None:
                    yield slice_result(partition, decisions, size, keep)
                    self._tracker.slice_done(partition, decisions)
                next_index += 1
        if pending or next_index != len(plan.partitions):  # pragma: no cover
            raise RuntimeError(
                "execution lost "
                f"{len(plan.partitions) - next_index} partitions"
            )


def _reassemble(
    partition: CandidatePartition,
    buckets: dict[int, list[XTupleDecision]],
    unit_pairs: list[tuple[tuple[str, str], ...]],
) -> tuple[XTupleDecision, ...]:
    """One partition's decisions, restored to plan emission order."""
    if len(buckets) == 1:
        # Whole partitions ride as one unit — every partition of an
        # in-process run, most of a pooled one — and sub-key groups
        # that stayed intact: no reorder needed.
        ((unit, decisions),) = buckets.items()
        if unit_pairs[unit] == partition.pairs:
            return tuple(decisions)
    by_pair: dict[tuple[str, str], XTupleDecision] = {}
    for unit, decisions in buckets.items():
        for pair, decision in zip(unit_pairs[unit], decisions):
            by_pair[pair] = decision
    return tuple(by_pair[pair] for pair in partition.pairs)


__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ExecutionEngine",
    "ExecutionSettings",
    "prewarm_plan",
    "subdivide_partition",
]
