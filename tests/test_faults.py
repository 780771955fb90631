"""Fault-tolerance golden suite: recovery is bitwise, failure is loud.

The contract under test: with deterministic, seeded fault injection —
crashed attempts, stalled attempts, flipped segment bytes —

* whenever recovery succeeds (retry or degraded re-execution), the
  run's decisions are **bitwise identical** to the clean reference
  pipeline's, across reducers and chunk sizes;
* whenever recovery is exhausted, the run resolves per ``on_error``:
  a structured ``PartitionFailure`` raised, or recorded in
  ``ExecutionReport.failures`` with the partitions dropped whole;
* **no recovery is silent** — every injected fault shows up in the
  report's counters and in the ``on_fault`` event stream (the property
  the chaos CI job asserts over its seed matrix);
* storage corruption is caught by checksums *mid-detect*, is
  attributable (segment path, byte offset, tuple ids), and quarantine
  leaves the surviving tuples servable — including one source of a
  ``detect_between`` consolidation.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.matching.executor import (
    ExecutionReport,
    ExecutionSettings,
    PartitionFailure,
    RetryPolicy,
    WorkerCrash,
    WorkerTimeout,
)
from repro.pdb.errors import SegmentCorruptionError, StorageError
from repro.pdb.io import open_store
from repro.pdb.relations import XRelation
from repro.reduction import (
    CertainKeyBlocking,
    SortedNeighborhood,
    SubstringKey,
)
from repro.testing import (
    FaultInjector,
    InjectedWorkerCrash,
    compose,
    crash_on,
    installed,
    stall_on,
)

BLOCK_KEY = SubstringKey([("name", 1)])
SORT_KEY = SubstringKey([("name", 3), ("job", 2)])

REDUCERS = {
    "blocking": lambda: CertainKeyBlocking(BLOCK_KEY),
    "snm": lambda: SortedNeighborhood(SORT_KEY, window=5),
    "full": lambda: FullComparison(),
}

#: The chaos job's fixed seed matrix: each seed picks different fault
#: targets, every run with one seed picks the same.
FAULT_SEEDS = (11, 29)

#: Generous next to the ~5ms attempts here; keeps slow-CI wiggle room
#: while a stalled attempt still times out quickly.
TIMEOUT = 0.4
STALL = 1.5

#: Chunk shapes, by id: ``"partitioned"`` decides every block within one
#: chunk (above the fixture's largest block, 28 pairs); ``"stealing"``
#: — an id kept so the chaos job's ``-k`` selections stay stable — uses
#: a chunk below it, so the large blocks ride alone, over several chunks.
CHUNK_SIZES = {"partitioned": 32, "stealing": 16}

#: In-process chunk sizes: 16 packs few blocks per task, 4096 packs the
#: whole blocking plan into one task (asserted where it matters).  Runs
#: without a recovery budget pack; under one every partition is decided
#: alone, so a fault must record the same at either size.
PACKING_CHUNKS = (16, 4096)


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


@pytest.fixture(scope="module")
def references(flat_relation, oracle):
    """Clean oracle decisions per reducer: the golden runs."""
    return {
        name: _triples(oracle(_detector(make()), flat_relation))
        for name, make in REDUCERS.items()
    }


def _assert_observable(report: ExecutionReport, events) -> None:
    """No silent degradation: faults ⇒ counters ⇒ events, consistently."""
    faults = report.worker_crashes + report.worker_timeouts
    assert faults >= 1
    recoveries = (
        report.retried_dispatches
        + report.degraded_tasks
        + len(report.failures)
    )
    assert recoveries >= 1
    kinds = [event.kind for event in events]
    assert len([k for k in kinds if k == "retry"]) == (
        report.retried_dispatches
    )
    assert len([k for k in kinds if k == "degraded"]) == (
        report.degraded_tasks
    )
    for event in events:
        assert event.partitions
        assert event.attempt >= 1
        assert event.fault in ("crash", "timeout")


# ----------------------------------------------------------------------
# Retry-then-degrade stays bitwise golden: 3 reducers × both chunk shapes
# ----------------------------------------------------------------------


@pytest.mark.parametrize("units", sorted(CHUNK_SIZES))
@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_retry_then_degrade_bitwise_golden(
    name, units, flat_relation, references
):
    """Crash every attempt: the budget is spent retrying, then the unit
    degrades to a hook-free re-execution — decisions bitwise-equal to
    the clean reference pipeline, and every recovery step observable."""
    detector = _detector(REDUCERS[name]())
    plan = detector.plan(flat_relation)
    pair = FaultInjector(7).pick_pair(plan)
    events = []
    with installed(crash_on(pair, attempts=(1, 2))):
        result = detector.detect(
            flat_relation,
            chunk_size=CHUNK_SIZES[units],
            retry=RetryPolicy(max_attempts=2),
            on_error="degrade",
            on_fault=events.append,
        )
    assert _triples(result) == references[name]
    report = detector.last_report
    assert report.retried_dispatches >= 1
    assert report.degraded_tasks >= 1
    assert not report.failures
    assert report.recovered
    _assert_observable(report, events)


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_first_attempt_crash_retry_recovers(
    name, flat_relation, references
):
    """A transient fault (first attempt only) needs no degradation."""
    detector = _detector(REDUCERS[name]())
    pair = FaultInjector(3).pick_pair(detector.plan(flat_relation))
    with installed(crash_on(pair, attempts=(1,))):
        result = detector.detect(
            flat_relation,
            chunk_size=16,
            retry=RetryPolicy(max_attempts=2),
        )
    assert _triples(result) == references[name]
    assert detector.last_report.retried_dispatches >= 1
    assert detector.last_report.degraded_tasks == 0


# ----------------------------------------------------------------------
# The chaos seed matrix: stalls recover via deadlines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("units", sorted(CHUNK_SIZES))
@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_stall_recovered_by_deadline(
    seed, units, flat_relation, references
):
    """A hung attempt overruns its deadline, times out at the next
    chunk boundary and is retried; the retry keeps decisions golden."""
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    events = []
    with installed(FaultInjector(seed).partition_stall(plan, STALL)):
        result = detector.detect(
            flat_relation,
            chunk_size=CHUNK_SIZES[units],
            retry=RetryPolicy(max_attempts=2, timeout=TIMEOUT),
            on_fault=events.append,
        )
    assert _triples(result) == references["blocking"]
    report = detector.last_report
    assert report.worker_timeouts >= 1
    assert report.retried_dispatches >= 1
    assert report.recovered
    _assert_observable(report, events)


@pytest.mark.parametrize("units", sorted(CHUNK_SIZES))
@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_stall_waits_once_per_recorded_timeout(seed, units, flat_relation):
    """Every stall the hook serves is an attempt the run records as a
    timeout: a stalled partition that shares a chunk with healthy ones
    is not first stalled in a packed attempt nobody records."""
    detector = _detector(REDUCERS["blocking"]())
    stall = FaultInjector(seed).partition_stall(
        detector.plan(flat_relation), STALL
    )
    sleeps = []

    def counted(attempt, pairs):
        started = time.monotonic()
        stall(attempt, pairs)
        if time.monotonic() - started >= STALL / 2:
            sleeps.append(attempt)

    with installed(counted):
        detector.detect(
            flat_relation,
            chunk_size=CHUNK_SIZES[units],
            retry=RetryPolicy(max_attempts=2, timeout=TIMEOUT),
        )
    assert sleeps == [1]
    assert len(sleeps) == detector.last_report.worker_timeouts


def test_composed_faults_recover(flat_relation, references):
    """Crash one attempt and stall another in the same run."""
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    injector = FaultInjector(5)
    hook = compose(
        crash_on(injector.pick_pair(plan)),
        stall_on(injector.pick_pair(plan), STALL),
    )
    with installed(hook):
        result = detector.detect(
            flat_relation,
            chunk_size=16,
            retry=RetryPolicy(max_attempts=3, timeout=TIMEOUT),
            on_error="degrade",
        )
    assert _triples(result) == references["blocking"]
    assert detector.last_report.recovered


# ----------------------------------------------------------------------
# Exhausted budgets: on_error semantics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("units", sorted(CHUNK_SIZES))
def test_skip_drops_failed_partitions_whole(
    units, flat_relation, references
):
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    pair = FaultInjector(7).pick_pair(plan)
    with installed(crash_on(pair, attempts=(1, 2, 3))):
        result = detector.detect(
            flat_relation,
            chunk_size=CHUNK_SIZES[units],
            retry=RetryPolicy(max_attempts=2),
            on_error="skip",
        )
    report = detector.last_report
    assert report.failures
    failed_labels = {failure.partition for failure in report.failures}
    # skip(): the crash-degrade fallback ran in-process and crashed too?
    # No — skip never degrades; the partitions are dropped whole.
    reference = {(t[0], t[1]): t for t in references["blocking"]}
    decided = _triples(result)
    assert (pair[0], pair[1]) not in {(t[0], t[1]) for t in decided}
    # Every surviving decision is bitwise-equal to the clean run's.
    for triple in decided:
        assert reference[(triple[0], triple[1])] == triple
    assert len(decided) < len(references["blocking"])
    for failure in report.failures:
        assert isinstance(failure, PartitionFailure)
        assert failure.partition in failed_labels
        assert failure.attempt == 2


def test_raise_surfaces_structured_partition_failure(flat_relation):
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    pair = FaultInjector(7).pick_pair(plan)
    with installed(crash_on(pair, attempts=(1, 2))):
        with pytest.raises(PartitionFailure) as info:
            detector.detect(
                flat_relation,
                    chunk_size=8,
                retry=RetryPolicy(max_attempts=2),
                on_error="raise",
            )
    failure = info.value
    assert failure.partition
    assert failure.attempt == 2
    assert isinstance(failure.__cause__, WorkerCrash)
    assert "attempt" in str(failure)


def test_degrade_failure_falls_back_to_recorded_failure(flat_relation):
    """When even the in-process degraded re-execution raises, the
    partition fails terminally — recorded, not silently dropped."""
    detector = _detector(REDUCERS["blocking"]())

    class Poison(Exception):
        pass

    original = detector.procedure.decide
    plan = detector.plan(flat_relation)
    pair = FaultInjector(7).pick_pair(plan)

    def poisoned(left, right, **kwargs):
        if {left.tuple_id, right.tuple_id} == set(pair):
            raise Poison("poison pair")
        return original(left, right, **kwargs)

    detector.procedure.decide = poisoned
    try:
        result = detector.detect(
            flat_relation,
            chunk_size=8,
            retry=RetryPolicy(max_attempts=2),
            on_error="degrade",
        )
    finally:
        detector.procedure.decide = original
    report = detector.last_report
    assert report.failures
    assert report.degraded_tasks == 0
    assert not report.recovered
    decided = {(t[0], t[1]) for t in _triples(result)}
    assert tuple(pair) not in decided


# ----------------------------------------------------------------------
# Serial supervision
# ----------------------------------------------------------------------


def test_serial_supervision_retries_and_degrades(flat_relation, references):
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    pair = FaultInjector(7).pick_pair(plan)
    events = []
    with installed(crash_on(pair, attempts=(1, 2))):
        result = detector.detect(
            flat_relation,
            retry=RetryPolicy(max_attempts=2),
            on_error="degrade",
            on_fault=events.append,
        )
    assert _triples(result) == references["blocking"]
    report = detector.last_report
    assert report.retried_dispatches >= 1
    assert report.degraded_tasks >= 1
    _assert_observable(report, events)


@pytest.mark.parametrize("chunk_size", PACKING_CHUNKS)
def test_default_settings_propagate_raw_exceptions(
    chunk_size, flat_relation
):
    """The compat pin: default settings engage no recovery.  Every run
    consults the fault hook, and an injected crash propagates with its
    own type — not wrapped, not retried — with nothing recorded, also
    when the victim shares its packed task with healthy partitions.
    A transient crash (the hook's first call only) propagates too: a
    packed task is never replayed, whatever the chunk size."""
    detector = _detector(REDUCERS["blocking"]())
    pair = FaultInjector(7).pick_pair(detector.plan(flat_relation))
    calls = []

    def transient(attempt, pairs):
        calls.append(attempt)
        if len(calls) == 1:
            raise InjectedWorkerCrash("transient fault on the first call")

    for hook in (crash_on(pair), transient):
        with installed(hook):
            with pytest.raises(InjectedWorkerCrash):
                detector.detect(flat_relation, chunk_size=chunk_size)
        report = detector.last_report
        assert report.worker_crashes == 0
        assert report.retried_dispatches == 0
        assert report.degraded_tasks == 0
        assert not report.failures
    assert calls == [1]


# ----------------------------------------------------------------------
# Policy validation and facade guards
# ----------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="timeout"):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError, match="backoff"):
        RetryPolicy(backoff=-1.0)
    assert RetryPolicy().supervises is False
    assert RetryPolicy(max_attempts=2).supervises is True
    assert RetryPolicy(timeout=1.0).supervises is True
    policy = RetryPolicy(max_attempts=4, backoff=0.1)
    assert [policy.delay(k) for k in (1, 2, 3)] == [0.1, 0.2, 0.4]
    assert RetryPolicy(max_attempts=4).delay(3) == 0.0


def test_settings_reject_unknown_on_error():
    with pytest.raises(ValueError, match="on_error"):
        ExecutionSettings(on_error="retry-forever")


def test_fault_taxonomy_carries_context():
    crash = WorkerCrash(
        "boom", partitions=("block:A",), sources=("left",), attempt=2
    )
    assert crash.partitions == ("block:A",)
    assert crash.sources == ("left",)
    assert crash.attempt == 2
    assert crash.kind == "crash"
    assert WorkerTimeout("slow").kind == "timeout"
    failure = PartitionFailure(
        "gone", partition="block:A", sources=("left",), attempt=3
    )
    assert failure.partition == "block:A"
    assert failure.kind == "failure"


def test_injector_is_deterministic(flat_relation):
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    for seed in FAULT_SEEDS:
        assert FaultInjector(seed).pick_pair(plan) == FaultInjector(
            seed
        ).pick_pair(plan)
        assert (
            FaultInjector(seed).pick_partition(plan).label
            == FaultInjector(seed).pick_partition(plan).label
        )


# ----------------------------------------------------------------------
# Storage: byte flips mid-detect, quarantine, partial consolidation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", FAULT_SEEDS)
def test_byte_flip_detected_mid_detect(seed, tmp_path, flat_relation):
    """Corruption that lands *after* the store was opened is still
    caught by the lazy checksum before any damaged tuple is decoded."""
    store = flat_relation.spill(str(tmp_path / "store"), segment_size=16)
    detector = _detector(REDUCERS["blocking"]())
    flip = FaultInjector(seed).flip_byte(store)
    with pytest.raises(SegmentCorruptionError) as info:
        detector.detect(store)
    error = info.value
    assert error.segment_file == flip.path
    assert error.tuple_ids
    assert error.expected_crc != error.actual_crc
    # Restored bytes verify clean again and detection completes.
    flip.restore()
    fresh = open_store(str(tmp_path / "store"))
    assert fresh.verify().ok
    assert detector.detect(fresh).decisions


def test_tampered_manifest_checksum_detected_mid_detect(
    tmp_path, flat_relation
):
    """A manifest whose recorded checksum disagrees with healthy bytes
    is just as corrupt: open succeeds, first page load mid-detect does
    not."""
    import json

    path = str(tmp_path / "store")
    flat_relation.spill(path, segment_size=16).close()
    manifest_file = os.path.join(path, "manifest.json")
    with open(manifest_file, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["segments"][0]["crc32"] ^= 0xDEADBEEF
    with open(manifest_file, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    store = open_store(path)
    detector = _detector(REDUCERS["blocking"]())
    with pytest.raises(SegmentCorruptionError, match="integrity"):
        detector.detect(store)


def test_quarantine_keeps_rest_servable(tmp_path, flat_relation):
    store = flat_relation.spill(str(tmp_path / "store"), segment_size=16)
    flip = FaultInjector(11).flip_byte(store, segment=2)
    audit = store.verify()
    assert not audit.ok
    assert [bad.file for bad in audit.corrupt] == [
        os.path.basename(flip.path)
    ]
    receipt = store.quarantine(audit.corrupt[0].file)
    assert receipt.remaining == len(flat_relation) - len(
        receipt.tuple_ids
    )
    assert len(store) == receipt.remaining
    assert store.verify().ok
    assert os.path.exists(receipt.quarantined_path)
    assert not os.path.exists(flip.path)
    for tuple_id in receipt.tuple_ids:
        assert tuple_id not in store
    # Survivors decode identically to the original relation.
    survivor = next(iter(store.tuple_ids))
    assert store.get(survivor) == flat_relation.get(survivor)
    # The rewritten manifest is durable: a fresh open agrees.
    fresh = open_store(store.path)
    assert len(fresh) == receipt.remaining
    assert fresh.verify().ok


def test_byte_flip_in_any_family_file_is_caught(tmp_path, flat_relation):
    """Flips land on seed-chosen files of a segment family — the
    structure file or any column — and the next read of the family
    raises, naming the flipped file."""
    store = flat_relation.spill(str(tmp_path / "store"), segment_size=16)
    family = store._segment_files[1]
    assert len(family) == 1 + len(flat_relation.schema.attributes)
    touched = set()
    for seed in range(12):
        flip = FaultInjector(seed).flip_byte(store, segment=1)
        assert flip.path in family
        touched.add(flip.path)
        fresh = open_store(store.path)
        with pytest.raises(SegmentCorruptionError) as info:
            list(fresh)
        assert info.value.segment_file == flip.path
        assert info.value.tuple_ids == flat_relation.tuple_ids[16:32]
        flip.restore()
        assert open_store(store.path).verify().ok
    # Seeds spread over the family, not just its structure file.
    assert len(touched) > 1


def test_byte_flip_reached_by_a_single_tuple_fetch(tmp_path, flat_relation):
    """Fetching one tuple of a flipped family maps the tuple's structure
    file and every column, so a flip in any of them raises with the
    whole family's ids, never a decode of the damaged bytes."""
    store = flat_relation.spill(str(tmp_path / "store"), segment_size=16)
    family_ids = flat_relation.tuple_ids[16:32]
    for seed in range(6):
        flip = FaultInjector(seed).flip_byte(store, segment=1)
        fresh = open_store(store.path)
        with pytest.raises(SegmentCorruptionError) as info:
            fresh.fetch([family_ids[seed]])
        assert info.value.segment_file == flip.path
        assert info.value.tuple_ids == family_ids
        flip.restore()


def test_byte_flip_in_an_unchecksummed_column_line_names_the_tuple(
    tmp_path, flat_relation
):
    """A flipped column line whose file records no CRC surfaces from
    ``fetch`` as a per-line ``StorageError`` naming the tuple and the
    byte offset; its neighbours decode line by line, untouched."""
    import json

    path = str(tmp_path / "store")
    flat_relation.spill(path, segment_size=16).close()
    manifest_file = os.path.join(path, "manifest.json")
    with open(manifest_file, encoding="utf-8") as handle:
        manifest = json.load(handle)
    column = manifest["segments"][1]["columns"][0]
    del column["crc32"]
    with open(manifest_file, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    offset = column["offsets"][5]
    with open(os.path.join(path, column["file"]), "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([original ^ 0xFF]))

    store = open_store(path)
    victim = flat_relation.tuple_ids[21]
    with pytest.raises(StorageError, match="corrupt segment line") as info:
        store.fetch([victim])
    assert not isinstance(info.value, SegmentCorruptionError)
    assert f"byte offset {offset}" in str(info.value)
    assert repr(victim) in str(info.value)
    ids = flat_relation.tuple_ids
    neighbours = ids[16:21] + ids[22:32]
    assert store.fetch(neighbours) == flat_relation.fetch(neighbours)


def test_quarantine_crash_after_manifest_rewrite_keeps_survivors(
    tmp_path, flat_relation, monkeypatch
):
    """A crash moving the family's first file — after the manifest was
    rewritten without it — leaves orphaned files, never a manifest
    pointing at missing data: a fresh open serves exactly the
    surviving tuples and audits clean."""
    from repro.pdb.storage import QUARANTINE_DIR

    store = flat_relation.spill(str(tmp_path / "store"), segment_size=16)
    flip = FaultInjector(11).flip_byte(store, segment=2)
    real_replace = os.replace

    def crash_on_quarantine_move(source, destination):
        if os.path.basename(os.path.dirname(destination)) == QUARANTINE_DIR:
            raise OSError("injected crash moving a quarantined file")
        real_replace(source, destination)

    monkeypatch.setattr(os, "replace", crash_on_quarantine_move)
    with pytest.raises(OSError, match="injected crash"):
        store.quarantine(flip.path)
    monkeypatch.undo()

    dropped = set(flat_relation.tuple_ids[32:48])
    survivors = tuple(
        tuple_id
        for tuple_id in flat_relation.tuple_ids
        if tuple_id not in dropped
    )
    fresh = open_store(store.path)
    assert fresh.tuple_ids == survivors
    assert fresh.verify().ok
    assert list(fresh) == [flat_relation.get(i) for i in survivors]
    # The corrupt family stayed where it was, orphaned.
    assert os.path.exists(flip.path)


def test_detect_between_with_quarantined_source(tmp_path, flat_relation):
    """One source of a consolidation loses a segment: quarantine it and
    the partial run equals the clean run over the surviving tuples."""
    ids = flat_relation.tuple_ids
    half = len(ids) // 2
    left = XRelation(
        "left",
        flat_relation.schema,
        (flat_relation.get(i) for i in ids[:half]),
    )
    right = XRelation(
        "right",
        flat_relation.schema,
        (flat_relation.get(i) for i in ids[half:]),
    )
    left_store = left.spill(str(tmp_path / "left"), segment_size=8)
    right_store = right.spill(str(tmp_path / "right"), segment_size=8)
    detector = _detector(REDUCERS["blocking"]())

    FaultInjector(29).flip_byte(right_store, segment=1)
    with pytest.raises(SegmentCorruptionError) as info:
        detector.detect_between(left_store, right_store)
    receipt = right_store.quarantine(info.value.segment_file)
    assert receipt.tuple_ids

    partial = detector.detect_between(left_store, right_store)
    surviving_right = XRelation(
        "right",
        right.schema,
        (
            right.get(i)
            for i in right.tuple_ids
            if i not in receipt.tuple_ids
        ),
    )
    clean = detector.detect_between(left, surviving_right)
    assert _triples(partial) == _triples(clean)


def test_close_is_idempotent_and_fork_safe(tmp_path, flat_relation):
    import pickle

    store = flat_relation.spill(str(tmp_path / "store"), segment_size=8)
    some_id = store.tuple_ids[0]
    store.get(some_id)
    assert store.open_segments >= 1
    store.close()
    store.close()  # second close: no-op, no raise
    with store:
        assert store.get(some_id).tuple_id == some_id
    store.close()
    # A pickled copy has lazy handles that were never opened; closing
    # it must not raise either.
    clone = pickle.loads(pickle.dumps(store))
    clone.close()
    clone.close()
    assert clone.get(some_id).tuple_id == some_id


# ----------------------------------------------------------------------
# last_report publication (regression: raising runs must not lose it)
# ----------------------------------------------------------------------


class TestLastReportPublication:
    """A raising detect still publishes its partial report."""

    def test_plan_driven_raise_publishes_partial_report(
        self, flat_relation
    ):
        detector = _detector(REDUCERS["blocking"]())
        detector.detect(flat_relation)
        previous = detector.last_report
        plan = detector.plan(flat_relation)
        pair = FaultInjector(7).pick_pair(plan)
        with installed(crash_on(pair, attempts=(1, 2))):
            with pytest.raises(PartitionFailure):
                detector.detect(
                    flat_relation,
                            chunk_size=8,
                    retry=RetryPolicy(max_attempts=2),
                    on_error="raise",
                )
        report = detector.last_report
        assert report is not None
        assert report is not previous
        # The partial counters of the raising run are inspectable.
        assert report.worker_crashes >= 1
        assert report.retried_dispatches >= 1


# ----------------------------------------------------------------------
# In-process deadlines: RetryPolicy.timeout honored at chunk boundaries
# ----------------------------------------------------------------------


def test_serial_timeout_retries_then_recovers(flat_relation, references):
    """A first-attempt stall past the deadline surfaces as a
    WorkerTimeout at the next chunk boundary, and the clean retry
    keeps the decisions bitwise golden."""
    detector = _detector(REDUCERS["blocking"]())
    pair = FaultInjector(5).pick_pair(detector.plan(flat_relation))
    events = []
    with installed(stall_on(pair, TIMEOUT * 2, attempts=(1,))):
        result = detector.detect(
            flat_relation,
            chunk_size=16,
            retry=RetryPolicy(max_attempts=2, timeout=TIMEOUT),
            on_error="degrade",
            on_fault=events.append,
        )
    assert _triples(result) == references["blocking"]
    report = detector.last_report
    assert report.worker_timeouts >= 1
    assert report.worker_crashes == 0
    assert report.retried_dispatches >= 1
    assert report.degraded_tasks == 0
    assert not report.failures
    assert report.recovered
    _assert_observable(report, events)


def test_serial_timeout_degrades_bitwise(flat_relation, references):
    """Every attempt stalls, the budget is spent on timeouts, and the
    deadline-free degraded re-execution completes bitwise-identical."""
    detector = _detector(REDUCERS["snm"]())
    pair = FaultInjector(5).pick_pair(detector.plan(flat_relation))
    events = []
    with installed(stall_on(pair, TIMEOUT * 2, attempts=(1, 2))):
        result = detector.detect(
            flat_relation,
            chunk_size=16,
            retry=RetryPolicy(max_attempts=2, timeout=TIMEOUT),
            on_error="degrade",
            on_fault=events.append,
        )
    assert _triples(result) == references["snm"]
    report = detector.last_report
    assert report.worker_timeouts >= 2
    assert report.degraded_tasks >= 1
    assert not report.failures
    _assert_observable(report, events)


def _victims(plan, pair) -> set[str]:
    return {
        partition.label for partition in plan if pair in partition.pairs
    }


@pytest.mark.parametrize("chunk_size", PACKING_CHUNKS)
def test_in_process_timeout_skip_drops_partitions_whole(
    chunk_size, flat_relation, references
):
    """on_error="skip" under an in-process timeout drops exactly the
    stalled unit's partitions and records structured failures — also
    at a chunk size that would pack the victim with healthy partitions,
    since under a recovery budget every partition is decided alone."""
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    pair = FaultInjector(5).pick_pair(plan)
    victims = _victims(plan, pair)
    with installed(stall_on(pair, TIMEOUT * 2, attempts=(1,))):
        result = detector.detect(
            flat_relation,
            chunk_size=chunk_size,
            retry=RetryPolicy(max_attempts=1, timeout=TIMEOUT),
            on_error="skip",
        )
    report = detector.last_report
    assert {failure.partition for failure in report.failures} == victims
    assert all(failure.attempt == 1 for failure in report.failures)
    assert report.worker_timeouts >= 1
    assert report.worker_crashes == 0
    reference = {(t[0], t[1]): t for t in references["blocking"]}
    decided = _triples(result)
    assert (pair[0], pair[1]) not in {(t[0], t[1]) for t in decided}
    for triple in decided:
        assert reference[(triple[0], triple[1])] == triple
    assert len(decided) < len(references["blocking"])


@pytest.mark.parametrize("chunk_size", PACKING_CHUNKS)
def test_in_process_crash_skip_drops_packed_partitions_whole(
    chunk_size, flat_relation, references
):
    """The crash counterpart: a victim crashing every attempt of its
    budget is dropped alone, with today's attempt count, whatever
    partitions were packed with it."""
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    assert len(plan) > 1 and plan.total_pairs <= max(PACKING_CHUNKS)
    pair = FaultInjector(5).pick_pair(plan)
    victims = _victims(plan, pair)
    events = []
    with installed(crash_on(pair, attempts=(1, 2))):
        result = detector.detect(
            flat_relation,
            chunk_size=chunk_size,
            retry=RetryPolicy(max_attempts=2),
            on_error="skip",
            on_fault=events.append,
        )
    report = detector.last_report
    assert {failure.partition for failure in report.failures} == victims
    assert all(failure.attempt == 2 for failure in report.failures)
    assert report.worker_crashes == 2
    assert report.retried_dispatches == 1
    assert report.worker_timeouts == 0
    _assert_observable(report, events)
    reference = {(t[0], t[1]): t for t in references["blocking"]}
    decided = _triples(result)
    assert len(decided) == len(reference) - sum(
        len(partition) for partition in plan if partition.label in victims
    )
    for triple in decided:
        assert reference[(triple[0], triple[1])] == triple


def test_in_process_crash_retry_recovers_packed_bitwise(
    flat_relation, references
):
    """A first-attempt crash inside a packed task recovers bitwise, and
    records exactly what an unpacked run (one partition per task)
    records: one crash, one retry, no failure."""
    detector = _detector(REDUCERS["blocking"]())
    pair = FaultInjector(5).pick_pair(detector.plan(flat_relation))
    reports = {}
    for chunk_size in (1, max(PACKING_CHUNKS)):
        with installed(crash_on(pair, attempts=(1,))):
            result = detector.detect(
                flat_relation,
                chunk_size=chunk_size,
                retry=RetryPolicy(max_attempts=2),
                on_error="skip",
            )
        assert _triples(result) == references["blocking"]
        reports[chunk_size] = detector.last_report
    unpacked, packed = reports[1], reports[max(PACKING_CHUNKS)]
    assert packed.worker_crashes == unpacked.worker_crashes == 1
    assert packed.retried_dispatches == unpacked.retried_dispatches == 1
    assert not packed.failures and not unpacked.failures


#: Recovery cases the parity test replays packed and unpacked, by id:
#: ``(fault, faulting attempts, policy, on_error)``.
PARITY_CASES = {
    "crash-degrade": ("crash", (1, 2), RetryPolicy(max_attempts=2), "degrade"),
    "crash-skip": ("crash", (1, 2), RetryPolicy(max_attempts=2), "skip"),
    "crash-raise": ("crash", (1, 2), RetryPolicy(max_attempts=2), "raise"),
    "crash-retried": ("crash", (1,), RetryPolicy(max_attempts=2), "raise"),
    "stall-skip": ("stall", (1,), RetryPolicy(timeout=TIMEOUT), "skip"),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
@pytest.mark.parametrize("seed", (3, 5, 7))
def test_packed_runs_record_what_unpacked_runs_record(
    seed, case, flat_relation
):
    """Packing changes how a run is batched, never what its recovery
    records: one partition per task (``chunk_size=1``) and the whole
    plan in one task give the same fault events, counters, failures
    and raised ``PartitionFailure``."""
    fault, attempts, policy, on_error = PARITY_CASES[case]
    detector = _detector(REDUCERS["blocking"]())
    plan = detector.plan(flat_relation)
    assert len(plan) > 1 and plan.total_pairs <= max(PACKING_CHUNKS)
    pair = FaultInjector(seed).pick_pair(plan)
    if fault == "crash":
        hook = crash_on(pair, attempts=attempts)
    else:
        hook = stall_on(pair, TIMEOUT * 2, attempts=attempts)
    records = []
    for chunk_size in (1, max(PACKING_CHUNKS)):
        events = []
        raised = None
        with installed(hook):
            try:
                detector.detect(
                    flat_relation,
                    chunk_size=chunk_size,
                    retry=policy,
                    on_error=on_error,
                    on_fault=events.append,
                )
            except PartitionFailure as failure:
                raised = (
                    failure.partition,
                    failure.attempt,
                    type(failure.__cause__),
                )
        report = detector.last_report
        records.append(
            (
                [
                    (event.kind, event.fault, event.partitions, event.attempt)
                    for event in events
                ],
                (
                    report.worker_crashes,
                    report.worker_timeouts,
                    report.retried_dispatches,
                    report.degraded_tasks,
                ),
                [
                    (failure.partition, failure.attempt)
                    for failure in report.failures
                ],
                raised,
            )
        )
    unpacked, packed = records
    assert unpacked[0], "the injected fault was never recorded"
    assert (raised is not None) == (on_error == "raise" and len(attempts) > 1)
    assert packed == unpacked
