"""The execution engine behind :class:`~repro.matching.DuplicateDetector`.

Everything between planning and the per-pair decision:

* :mod:`~repro.matching.executor.scheduler` —
  :class:`ExecutionEngine` / :class:`ExecutionSettings`: one
  in-process loop for every run — partitions packed into chunk-sized
  tasks, one decide batch per chunk, per-partition replay under a
  recovery budget, plan-order emission;
* :mod:`~repro.matching.executor.multisource` — source-tagged planning
  over :class:`~repro.pdb.storage.MultiSourceStore` views and
  cross-source pruning (the ℛ1/ℛ2, ℛ3/ℛ4 consolidation scenario
  without materializing a union);
* :mod:`~repro.matching.executor.faults` — the fault model:
  structured error taxonomy (:class:`WorkerCrash` /
  :class:`WorkerTimeout` / :class:`PartitionFailure`),
  :class:`RetryPolicy`, the ``on_error`` modes, cooperative deadlines
  and the fault-injection hook seam;
* :mod:`~repro.matching.executor.progress` —
  :class:`ExecutionReport` run reports, per-partition
  :class:`PartitionProgress` events and :class:`FaultEvent` recovery
  events;
* :mod:`~repro.matching.executor.results` — the
  :class:`DetectionResult` container every path produces.

Every configuration yields exactly the decisions of the plain serial pipeline,
in the same order, for every storage backend.
"""

from repro.matching.executor.faults import (
    ON_ERROR_MODES,
    DeadlineExceeded,
    ExecutionFault,
    PartitionFailure,
    RetryPolicy,
    WorkerCrash,
    WorkerTimeout,
    check_deadline,
)
from repro.matching.executor.multisource import (
    cross_source_plan,
    partition_sources,
    plan_sources,
    prune_disjoint_sources,
    source_key_ranges,
    tag_plan_sources,
)
from repro.matching.executor.progress import (
    ExecutionReport,
    FaultEvent,
    FaultObserver,
    PartitionProgress,
    ProgressObserver,
)
from repro.matching.executor.results import DetectionResult, slice_result
from repro.matching.executor.scheduler import (
    DEFAULT_CHUNK_SIZE,
    ExecutionEngine,
    ExecutionSettings,
    prewarm_plan,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ON_ERROR_MODES",
    "DeadlineExceeded",
    "DetectionResult",
    "ExecutionEngine",
    "ExecutionFault",
    "ExecutionReport",
    "ExecutionSettings",
    "FaultEvent",
    "FaultObserver",
    "PartitionFailure",
    "PartitionProgress",
    "ProgressObserver",
    "RetryPolicy",
    "WorkerCrash",
    "WorkerTimeout",
    "check_deadline",
    "cross_source_plan",
    "partition_sources",
    "plan_sources",
    "prewarm_plan",
    "prune_disjoint_sources",
    "slice_result",
    "source_key_ranges",
    "tag_plan_sources",
]
