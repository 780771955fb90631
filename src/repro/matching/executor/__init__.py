"""The execution engine behind :class:`~repro.matching.DuplicateDetector`.

Everything between planning and the per-pair decision:

* :mod:`~repro.matching.executor.scheduler` —
  :class:`ExecutionEngine` / :class:`ExecutionSettings`: one pipeline
  for every run — cache pre-warm/freeze around forks, work units
  (skew-aware subdivision through the reducers' ``split_partition``
  hook, largest-first dispatch), one supervised runner, plan-order
  reassembly;
* :mod:`~repro.matching.executor.workers` — forked worker state and the
  one decide loop shared by in-process attempts and workers;
* :mod:`~repro.matching.executor.multisource` — source-tagged planning
  over :class:`~repro.pdb.storage.MultiSourceStore` views and
  cross-source pruning (the ℛ1/ℛ2, ℛ3/ℛ4 consolidation scenario
  without materializing a union);
* :mod:`~repro.matching.executor.faults` — the fault-tolerance layer:
  structured error taxonomy (:class:`WorkerCrash` /
  :class:`WorkerTimeout` / :class:`PartitionFailure`),
  :class:`RetryPolicy` and the supervised dispatcher driving
  retry-then-degrade recovery;
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
    PREWARM_PAIR_BUDGET,
    ExecutionEngine,
    ExecutionSettings,
    prewarm_plan,
    subdivide_partition,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ON_ERROR_MODES",
    "PREWARM_PAIR_BUDGET",
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
    "subdivide_partition",
    "tag_plan_sources",
]
