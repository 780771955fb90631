"""The execution engine: skew-aware work stealing, splits, progress.

Three invariant families pin the executor extraction:

* **stealing equivalence** — a pooled run's work-unit subdivision,
  largest-first dispatch and plan-order reassembly produce exactly the
  decisions of the reference oracle, streamed and collected, and an
  in-process run never splits;
* **exact cover** — every subdivision path (sub-key hook, grouping
  helper, banding fallback) covers a partition's pairs exactly once
  (hypothesis properties), and a broken splitter is rejected loudly;
* **introspection** — run reports and progress events describe what
  the scheduler actually did.

The detector facade's LRU memo of pruned procedure clones (threshold
pushdown) is pinned here too, since the facade slimming moved it.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import (
    AttributeMatcher,
    DuplicateDetector,
    FellegiSunterModel,
    FullComparison,
    ThresholdClassifier,
)
from repro.matching.executor import (
    ExecutionEngine,
    ExecutionSettings,
    RetryPolicy,
    prewarm_plan,
    subdivide_partition,
)
from repro.matching.executor import scheduler
from repro.pdb.relations import XRelation
from repro.reduction import (
    CandidatePartition,
    CertainKeyBlocking,
    PlanBuilder,
    SortedNeighborhood,
    SubstringKey,
    band_partition,
    plan_candidates,
    split_partition_by_groups,
)
from repro.similarity import FAST_LEVENSHTEIN, UncertainValueComparator

BLOCK_KEY = SubstringKey([("name", 1)])
SORT_KEY = SubstringKey([("name", 3), ("job", 2)])


@pytest.fixture(scope="module")
def flat_relation():
    return generate_dataset(
        DatasetConfig(entity_count=40, seed=7), flat=True
    ).relation


def _detector(reducer):
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=reducer
    )


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


# ----------------------------------------------------------------------
# Stealing equivalence (the acceptance pin)
# ----------------------------------------------------------------------


STEALING_REDUCERS = {
    "blocking": lambda: CertainKeyBlocking(BLOCK_KEY),
    "snm": lambda: SortedNeighborhood(SORT_KEY, window=5),
    "full": lambda: FullComparison(),
}


@pytest.mark.parametrize("name", sorted(STEALING_REDUCERS))
def test_stealing_matches_serial_seed_pipeline(
    name, flat_relation, oracle
):
    """A tiny chunk forces subdivision on every oversized block."""
    factory = STEALING_REDUCERS[name]
    reference = oracle(_detector(factory()), flat_relation)
    serial = _detector(factory()).detect(flat_relation)
    parallel = _detector(factory()).detect(
        flat_relation,
        n_jobs=2,
        chunk_size=11,
    )
    assert _triples(serial) == _triples(reference)
    assert _triples(parallel) == _triples(reference)
    assert serial.compared_pairs == reference.compared_pairs
    assert parallel.compared_pairs == reference.compared_pairs


def test_stealing_stream_slices_stay_in_plan_order(flat_relation):
    reducer = CertainKeyBlocking(BLOCK_KEY)
    detector = _detector(reducer)
    plan = reducer.plan(flat_relation)
    slices = list(
        detector.detect(
            flat_relation,
            chunk_size=7,
            n_jobs=2,
            stream=True,
        )
    )
    assert [piece.partition_label for piece in slices] == [
        partition.label for partition in plan
    ]
    reference = _detector(CertainKeyBlocking(BLOCK_KEY)).detect(
        flat_relation
    )
    streamed = [t for piece in slices for t in _triples(piece)]
    assert streamed == _triples(reference)


def test_stealing_report_counts_splits(flat_relation):
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    detector.detect(flat_relation, n_jobs=2, chunk_size=7)
    report = detector.last_report
    assert report.oversized_partitions > 0
    assert report.subkey_split_partitions > 0
    assert report.work_units > report.partitions
    assert report.decided_pairs == report.total_pairs
    assert report.completed_partitions == report.partitions
    assert "split" in report.summary()


def test_progress_events_track_the_plan(flat_relation):
    reducer = CertainKeyBlocking(BLOCK_KEY)
    detector = _detector(reducer)
    events = []
    detector.detect(flat_relation, on_progress=events.append)
    plan = reducer.plan(flat_relation)
    assert [event.label for event in events] == [
        partition.label for partition in plan
    ]
    assert [event.index for event in events] == list(range(len(plan)))
    fractions = [event.fraction for event in events]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)
    assert events[-1].decided_pairs == plan.total_pairs


def test_partitioned_report_counts_dispatches(flat_relation):
    """A chunk that holds the largest block keeps every partition whole,
    so the pool auto-warms the caches and freezes them around the fork."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    largest = max(len(p) for p in detector.plan(flat_relation))
    detector.detect(flat_relation, n_jobs=2, chunk_size=largest)
    report = detector.last_report
    assert report.n_jobs == 2
    assert report.oversized_partitions == 0
    assert report.work_units == report.partitions
    assert report.dispatch_tasks > 1
    assert report.prewarmed_entries > 0
    assert report.caches_frozen
    assert report.decided_pairs == report.total_pairs


def test_stealing_defaults_to_no_parent_prewarm(flat_relation):
    """A plan that needs subdividing is not warmed in the parent; the
    same plan at the default chunk size is warmed and frozen."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    detector.detect(flat_relation, n_jobs=2, chunk_size=7)
    assert detector.last_report.oversized_partitions > 0
    assert detector.last_report.prewarmed_entries == 0
    assert not detector.last_report.caches_frozen
    detector.detect(flat_relation, n_jobs=2)
    assert detector.last_report.prewarmed_entries > 0
    assert detector.last_report.caches_frozen


def test_default_chunk_subdivides_at_the_partition_target(flat_relation):
    """Full comparison over the fixture plans one 2054-pair block: a pooled
    run at the default chunk size splits it into the planners' 2048-pair
    units; a smaller chunk is what forces finer subdivision."""
    from repro.reduction.plan import DEFAULT_PARTITION_PAIRS

    assert ExecutionSettings().unit_budget == DEFAULT_PARTITION_PAIRS == 2048
    assert ExecutionSettings(chunk_size=7).unit_budget == 7
    detector = _detector(FullComparison())
    plan = detector.plan(flat_relation)
    oversized = [p for p in plan if len(p) > 2048]
    assert [len(p) for p in oversized] == [2054]
    detector.detect(flat_relation, n_jobs=2)
    report = detector.last_report
    assert report.oversized_partitions == 1
    assert report.banded_partitions == 1
    assert report.work_units == len(plan) + 1
    assert report.prewarmed_entries == 0


def test_execution_settings_validate():
    with pytest.raises(ValueError):
        ExecutionSettings(chunk_size=0)
    with pytest.raises(ValueError):
        ExecutionSettings(n_jobs=0)


def test_prewarm_budget_overflow_skips_freezing(flat_relation, monkeypatch):
    """A budget too small for the plan leaves the warm incomplete: the
    caches are then not frozen around the fork (the skewed-block regime
    the stealing scheduler sidesteps) — and decisions are unchanged."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    plan = detector.plan(flat_relation)
    matcher = default_matcher()
    warmed, complete = prewarm_plan(matcher, flat_relation, plan, budget=5)
    assert not complete
    assert 0 < warmed <= 5
    reference = _detector(CertainKeyBlocking(BLOCK_KEY)).detect(
        flat_relation
    )
    full_warm = scheduler.prewarm_plan
    monkeypatch.setattr(
        scheduler,
        "prewarm_plan",
        lambda matcher, relation, plan: full_warm(
            matcher, relation, plan, budget=5
        ),
    )
    capped = detector.detect(flat_relation, n_jobs=2)
    assert not detector.last_report.caches_frozen
    assert _triples(capped) == _triples(reference)
    monkeypatch.undo()
    detector.detect(flat_relation, n_jobs=2)
    assert detector.last_report.caches_frozen


def test_in_process_runs_never_split(flat_relation):
    """n_jobs=1 decides every partition whole, in plan order: the unit
    budget only subdivides work a pool would otherwise serialize."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    detector.detect(flat_relation, chunk_size=7)
    report = detector.last_report
    assert report.oversized_partitions == 0
    assert report.work_units == report.partitions
    assert report.dispatch_tasks == 0


def _packed_batch_sizes(plan, chunk_size):
    """Batch sizes of packed in-process execution: consecutive
    partitions share a task until the next would overflow the chunk,
    and each task is decided chunk by chunk."""
    totals, task = [], 0
    for partition in plan:
        if task and task + len(partition) > chunk_size:
            totals.append(task)
            task = 0
        task += len(partition)
    totals.append(task)
    return [
        min(chunk_size, total - start)
        for total in totals
        for start in range(0, total, chunk_size)
    ]


@pytest.mark.parametrize("chunk_size", [1, 37, 4096])
def test_in_process_packs_partitions_into_chunk_batches(
    chunk_size, flat_relation, oracle
):
    """n_jobs=1 packs consecutive partitions into tasks closed *before*
    they would exceed ``chunk_size`` pairs and decides each task with
    one ``decide_batch`` per chunk; slices still come one per
    partition, in plan order, with the oracle's decisions."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    plan = detector.plan(flat_relation)
    sizes = []
    original = detector.procedure.decide_batch

    def counting(lefts, rights, keep_derivations=True):
        sizes.append(len(lefts))
        return original(lefts, rights, keep_derivations)

    detector.procedure.decide_batch = counting
    slices = list(
        detector.detect(flat_relation, chunk_size=chunk_size, stream=True)
    )
    assert sizes == _packed_batch_sizes(plan, chunk_size)
    assert len(sizes) < len(plan) or chunk_size == 1
    assert [piece.partition_label for piece in slices] == [
        partition.label for partition in plan
    ]
    reference = oracle(
        _detector(CertainKeyBlocking(BLOCK_KEY)), flat_relation
    )
    assert [t for piece in slices for t in _triples(piece)] == _triples(
        reference
    )


# ----------------------------------------------------------------------
# Exact cover of subdivisions
# ----------------------------------------------------------------------


def _partition_from_pairs(pairs):
    builder = PlanBuilder()
    builder.add("prop", pairs)
    plan = builder.build(relation_size=64, source="prop")
    return plan.partitions[0] if plan.partitions else None


pair_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15).map("t{:02d}".format),
        st.integers(min_value=0, max_value=15).map("t{:02d}".format),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(pairs=pair_lists, max_pairs=st.integers(min_value=1, max_value=12))
def test_banding_covers_every_pair_exactly_once(pairs, max_pairs):
    partition = _partition_from_pairs(pairs)
    if partition is None:
        return
    bands = band_partition(partition, max_pairs)
    flat = [pair for band in bands for pair in band.pairs]
    assert flat == list(partition.pairs)  # order-preserving cover
    assert all(len(band) <= max_pairs for band in bands)


@settings(max_examples=60, deadline=None)
@given(
    pairs=pair_lists,
    salt=st.integers(min_value=2, max_value=5),
)
def test_grouped_split_covers_every_pair_exactly_once(pairs, salt):
    """Property: any member→group map is an exact, reorderable cover."""
    partition = _partition_from_pairs(pairs)
    if partition is None:
        return
    groups = {
        member: f"g{hash(member) % salt}" for member in partition.members
    }
    subs = split_partition_by_groups(partition, groups)
    flat = [pair for sub in subs for pair in sub.pairs]
    assert sorted(flat) == sorted(set(partition.pairs))
    assert len(flat) == len(partition.pairs)
    for sub in subs:
        touched = {m for pair in sub.pairs for m in pair}
        assert set(sub.members) == touched


@settings(max_examples=30, deadline=None)
@given(
    names=st.lists(
        st.text(
            alphabet="ab", min_size=1, max_size=4
        ),
        min_size=2,
        max_size=12,
    ),
    max_pairs=st.integers(min_value=1, max_value=6),
)
def test_blocking_subkey_split_covers_exactly_once(names, max_pairs):
    """The reducer hook: work-stealing sub-partitions cover every
    candidate pair of the block exactly once (the ISSUE's property)."""
    from repro.pdb.xtuples import TupleAlternative, XTuple

    relation = XRelation(
        "R",
        ("name",),
        [
            XTuple(f"t{i:02d}", (TupleAlternative({"name": name}, 1.0),))
            for i, name in enumerate(names)
        ],
    )
    reducer = CertainKeyBlocking(SubstringKey([("name", 1)]))
    for partition in reducer.plan(relation):
        units = subdivide_partition(
            reducer, relation, partition, max_pairs=max_pairs
        )
        flat = [pair for unit in units for pair in unit.pairs]
        assert sorted(flat) == sorted(partition.pairs)
        assert len(flat) == len(partition.pairs)
        assert all(len(unit) <= max_pairs for unit in units)


def test_broken_splitter_is_rejected(flat_relation):
    class DroppingSplitter:
        """Claims to split but silently drops pairs."""

        def split_partition(self, relation, partition, *, max_pairs):
            half = partition.pairs[: len(partition.pairs) // 2]
            return [
                CandidatePartition(
                    label=f"{partition.label}/broken",
                    pairs=half,
                    members=partition.members,
                )
            ]

    plan = plan_candidates(CertainKeyBlocking(BLOCK_KEY), flat_relation)
    oversized = max(plan.partitions, key=len)
    with pytest.raises(ValueError, match="inexact cover"):
        subdivide_partition(
            DroppingSplitter(),
            flat_relation,
            oversized,
            max_pairs=max(1, len(oversized) // 4),
        )


def test_engine_is_usable_directly(flat_relation):
    """The extracted engine works without the detector facade."""
    reducer = CertainKeyBlocking(BLOCK_KEY)
    detector = _detector(reducer)
    plan = plan_candidates(reducer, flat_relation)
    engine = ExecutionEngine(
        detector.procedure,
        ExecutionSettings(n_jobs=2, chunk_size=9),
        splitter=reducer,
    )
    slices = list(engine.execute(flat_relation, plan))
    reference = _detector(CertainKeyBlocking(BLOCK_KEY)).detect(
        flat_relation
    )
    flat = [t for piece in slices for t in _triples(piece)]
    assert flat == _triples(reference)
    assert engine.report.completed_partitions == len(plan)


# ----------------------------------------------------------------------
# Pruned-procedure memo: true LRU eviction (facade satellite)
# ----------------------------------------------------------------------


def _prunable_detector():
    matcher = AttributeMatcher(
        {
            "name": UncertainValueComparator(FAST_LEVENSHTEIN, cache=True),
            "job": UncertainValueComparator(FAST_LEVENSHTEIN, cache=True),
        }
    )
    model = FellegiSunterModel(
        {"name": 0.9, "job": 0.6},
        {"name": 0.05, "job": 0.2},
        ThresholdClassifier(10.0, 1.0),
        agreement_threshold=0.8,
    )
    return DuplicateDetector(matcher, model)


def test_pruned_procedure_memo_is_bounded_lru():
    from repro.matching.pipeline import _MAX_PRUNED_PROCEDURES

    detector = _prunable_detector()
    hot = detector._resolve_run(0.5)[0]
    assert hot is not detector.procedure  # a real pruned clone
    assert detector._resolve_run(0.5)[0] is hot  # memoized
    # A cutoff sweep interleaved with the hot configuration: the hot
    # clone must survive (the old wholesale clear() dropped it).
    for step in range(2 * _MAX_PRUNED_PROCEDURES):
        detector._resolve_run(0.05 + step * 0.02)
        assert detector._resolve_run(0.5)[0] is hot
        assert len(detector._pruned_procedures) <= _MAX_PRUNED_PROCEDURES
    # Cold sweep entries were evicted least-recently-used first: the
    # earliest sweep cutoffs are gone, the latest still memoized.
    memo = detector._pruned_procedures
    late = detector._resolve_run(
        0.05 + (2 * _MAX_PRUNED_PROCEDURES - 1) * 0.02
    )[0]
    assert any(procedure is late for procedure in memo.values())
    early_key_count = len(memo)
    detector._resolve_run(0.05)  # re-derive an evicted cutoff
    assert len(memo) <= max(early_key_count, _MAX_PRUNED_PROCEDURES)


def test_pruned_procedure_memo_evicts_oldest_not_everything():
    from repro.matching.pipeline import _MAX_PRUNED_PROCEDURES

    detector = _prunable_detector()
    procedures = [
        detector._resolve_run(0.1 + i * 0.05)[0]
        for i in range(_MAX_PRUNED_PROCEDURES)
    ]
    # Memo is full; one more eviction drops exactly the oldest.
    detector._resolve_run(0.9)
    memo_values = list(detector._pruned_procedures.values())
    assert procedures[0] not in memo_values
    assert all(p in memo_values for p in procedures[1:])
    assert len(memo_values) == _MAX_PRUNED_PROCEDURES


# ----------------------------------------------------------------------
# Option surface: one execution-options path
# ----------------------------------------------------------------------

#: Every keyword ``_resolve_run`` takes, each set off its default.
RUN_OPTIONS = {
    "min_similarity": 0.5,
    "kernel_backend": "python",
    "chunk_size": 9,
    "n_jobs": 2,
    "keep_derivations": False,
    "keep_compared_pairs": False,
    "retry": RetryPolicy(max_attempts=2),
    "on_error": "degrade",
}

RETIRED_OPTIONS = ("prewarm", "prewarm_budget", "split_pairs")


class _Resolved(Exception):
    """Raised by the resolver spy once it has recorded a call."""


def _entry_points(detector, relation):
    """``detect``, ``detect_between`` and ``session`` over *relation*."""
    return (
        lambda **options: detector.detect(relation, **options),
        lambda **options: detector.detect_between(
            relation, relation, **options
        ),
        lambda **options: detector.session(relation, **options),
    )


def test_entry_points_resolve_one_option_surface(flat_relation, monkeypatch):
    """detect, detect_between and session hand the same execution
    keywords to ``_resolve_run``; detect takes 12 keywords."""
    resolver = inspect.signature(DuplicateDetector._resolve_run)
    assert set(resolver.parameters) - {"self"} == set(RUN_OPTIONS)
    detect = inspect.signature(DuplicateDetector.detect)
    keywords = set(detect.parameters) - {"self", "relation"}
    assert len(keywords) == 12
    assert set(RUN_OPTIONS) <= keywords

    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    seen = []

    def spy(*args, **kwargs):
        bound = resolver.bind(detector, *args, **kwargs)
        bound.apply_defaults()
        seen.append({k: v for k, v in bound.arguments.items() if k != "self"})
        raise _Resolved

    monkeypatch.setattr(detector, "_resolve_run", spy)
    entry_points = _entry_points(detector, flat_relation)
    for call in entry_points:
        with pytest.raises(_Resolved):
            call(**RUN_OPTIONS)
    assert seen == [RUN_OPTIONS] * len(entry_points)


@pytest.mark.parametrize("option", RETIRED_OPTIONS)
def test_retired_execution_options_raise_type_error(option, flat_relation):
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    for call in _entry_points(detector, flat_relation):
        with pytest.raises(TypeError, match=option):
            call(**{option: 1})
    with pytest.raises(TypeError, match=option):
        ExecutionSettings(**{option: 1})
