"""The execution engine: packed in-process tasks, progress, options.

Three invariant families pin the executor:

* **packing equivalence** — consecutive partitions packed into
  chunk-sized tasks produce exactly the decisions of the reference
  oracle, one slice per partition in plan order, streamed and
  collected;
* **introspection** — run reports and progress events describe what
  the engine actually did;
* **one option surface** — ``detect``, ``detect_between`` and
  ``session`` resolve the same execution keywords through one
  resolver, and retired options fail loudly.

The detector facade's LRU memo of pruned procedure clones (threshold
pushdown) is pinned here too, since the facade slimming moved it.
"""

from __future__ import annotations

import inspect

import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import (
    AttributeMatcher,
    DuplicateDetector,
    FellegiSunterModel,
    ThresholdClassifier,
)
from repro.matching.executor import (
    ExecutionEngine,
    ExecutionSettings,
    RetryPolicy,
)
from repro.pdb import io as pdb_io
from repro.reduction import (
    CertainKeyBlocking,
    SubstringKey,
    plan_candidates,
)
from repro.service.cli import main as cli_main
from repro.similarity import FAST_LEVENSHTEIN, UncertainValueComparator

BLOCK_KEY = SubstringKey([("name", 1)])


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


def test_execution_settings_validate():
    with pytest.raises(ValueError):
        ExecutionSettings(chunk_size=0)


def test_in_process_runs_never_split(flat_relation):
    """Every partition is decided whole and emitted as one slice, in
    plan order, even when it is larger than a chunk."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    plan = detector.plan(flat_relation)
    assert max(len(partition) for partition in plan) > 7
    slices = list(detector.detect(flat_relation, chunk_size=7, stream=True))
    assert [piece.partition_label for piece in slices] == [
        partition.label for partition in plan
    ]
    assert [len(piece.decisions) for piece in slices] == [
        len(partition) for partition in plan
    ]
    report = detector.last_report
    assert report.completed_partitions == report.partitions == len(plan)
    assert report.decided_pairs == report.total_pairs


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
    """Consecutive partitions are packed into tasks closed *before*
    they would exceed ``chunk_size`` pairs, and each task is decided
    with one ``decide_batch`` per chunk; slices still come one per
    partition, in plan order, with the oracle's decisions."""
    detector = _detector(CertainKeyBlocking(BLOCK_KEY))
    plan = detector.plan(flat_relation)
    sizes = []
    original = detector.procedure.decide_batch

    def counting(lefts, rights, keep_derivations=True, view=None):
        sizes.append(len(lefts))
        return original(lefts, rights, keep_derivations, view)

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


def test_engine_is_usable_directly(flat_relation):
    """The extracted engine works without the detector facade."""
    reducer = CertainKeyBlocking(BLOCK_KEY)
    detector = _detector(reducer)
    plan = plan_candidates(reducer, flat_relation)
    engine = ExecutionEngine(
        detector.procedure, ExecutionSettings(chunk_size=9)
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
    "keep_derivations": False,
    "keep_compared_pairs": False,
    "retry": RetryPolicy(max_attempts=2),
    "on_error": "degrade",
}

RETIRED_OPTIONS = ("prewarm", "prewarm_budget", "split_pairs", "n_jobs")


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
    keywords to ``_resolve_run``; detect takes 11 keywords."""
    resolver = inspect.signature(DuplicateDetector._resolve_run)
    assert set(resolver.parameters) - {"self"} == set(RUN_OPTIONS)
    detect = inspect.signature(DuplicateDetector.detect)
    keywords = set(detect.parameters) - {"self", "relation"}
    assert len(keywords) == 11
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


def test_cli_rejects_retired_n_jobs(flat_relation, tmp_path, capsys):
    """The CLI's retired ``--n-jobs`` flag is an unknown argument."""
    base = str(tmp_path / "base.json")
    pdb_io.dump(flat_relation, base)
    with pytest.raises(SystemExit) as info:
        cli_main(["detect", "--base", base, "--n-jobs", "1"])
    assert info.value.code == 2
    assert "--n-jobs" in capsys.readouterr().err
