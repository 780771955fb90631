"""Incremental detection golden suite.

The contract under test (the PR-8 acceptance pin): a
:class:`~repro.service.DetectionSession` that ingests a delta produces
decisions **bitwise identical** to a from-scratch detection over the
materialized union of the base with that delta — for every reducer
family of Section V, for adds, modifies and deletes, over in-memory
and spilled bases, serially and with process fan-out — while executing
*only* the partitions the delta touched (the fingerprint property
pinned here by hypothesis: a delta plan never contains an untouched
partition), and within them deciding only the pairs with a member the
delta changed (a delete-only ingest decides none).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.pdb.errors import SchemaMismatchError
from repro.pdb.io import encode_xtuple
from repro.pdb.relations import XRelation
from repro.pdb.storage import SessionStore
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.reduction import (
    AlternativeKeyBlocking,
    AlternativeSorting,
    CertainKeyBlocking,
    MultiPassBlocking,
    MultiPassSNM,
    PhoneticBlocking,
    SortedNeighborhood,
    SubstringKey,
    UncertainKeyClusteringBlocking,
    UncertainKeySNM,
    delta_plan,
    plan_candidates,
    plan_fingerprints,
)
from repro.service.cli import stats_document

SORT_KEY = SubstringKey([("name", 3), ("job", 2)])
BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])


def r34() -> XRelation:
    from repro.experiments.paper_data import MU_JOBS, relation_r34

    return XRelation(
        "R34x",
        ("name", "job"),
        [
            xt.expand_patterns({"job": MU_JOBS}).expand()
            for xt in relation_r34()
        ],
    )


@pytest.fixture(scope="module")
def flat_relation():
    return generate_dataset(
        DatasetConfig(entity_count=24, seed=91), flat=True
    ).relation


@pytest.fixture(scope="module")
def x_relation():
    return generate_dataset(DatasetConfig(entity_count=14, seed=93)).relation


#: Reducer factories and which fixture-backed relation they run on
#: (mirrors the execution-plan golden suite).
REDUCERS = {
    "full": (lambda: FullComparison(), "flat"),
    "certain_blocking": (lambda: CertainKeyBlocking(BLOCK_KEY), "x"),
    "alternative_blocking": (
        lambda: AlternativeKeyBlocking(BLOCK_KEY),
        "x",
    ),
    "snm": (lambda: SortedNeighborhood(SORT_KEY, window=5), "flat"),
    "alternative_sorting": (
        lambda: AlternativeSorting(SORT_KEY, window=4),
        "x",
    ),
    "uncertain_snm": (lambda: UncertainKeySNM(SORT_KEY, window=4), "x"),
    "uncertain_clustering": (
        lambda: UncertainKeyClusteringBlocking(BLOCK_KEY, radius=0.4),
        "x",
    ),
    "phonetic_blocking": (lambda: PhoneticBlocking(), "x"),
    "multipass_snm": (
        lambda: MultiPassSNM(
            SORT_KEY, window=3, selection="diverse", world_count=2
        ),
        "r34",
    ),
    "multipass_blocking": (
        lambda: MultiPassBlocking(
            BLOCK_KEY, selection="diverse", world_count=2
        ),
        "r34",
    ),
}


def _relation_for(kind, flat_relation, x_relation):
    if kind == "flat":
        return flat_relation
    if kind == "x":
        return x_relation
    return r34()


def _detector(reducer):
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=reducer
    )


def _quads(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


def split_scenario(relation):
    """Carve one relation into a base plus a mixed delta batch.

    The delta exercises all three operation kinds: the tail of the
    relation re-appears as *adds* under fresh ids, the first base tuple
    is *modified* (it takes the last base tuple's alternatives), and the
    second base tuple is *deleted*.
    """
    rows = list(relation)
    keep = max(1, len(rows) // 6)
    base_rows, tail = rows[: len(rows) - keep], rows[len(rows) - keep :]
    adds = [
        XTuple(f"delta-{i}", xt.alternatives) for i, xt in enumerate(tail)
    ]
    modify = XTuple(base_rows[0].tuple_id, base_rows[-1].alternatives)
    deletes = [base_rows[1].tuple_id]
    base = XRelation(
        f"{relation.name}-base", relation.schema.attributes, base_rows
    )
    return base, [modify] + adds, deletes


def materialized_union(base, upserts, deletes):
    """The relation a from-scratch run over base ⊎ delta would see."""
    upsert_map = {xt.tuple_id: xt for xt in upserts}
    deleted = set(deletes)
    rows = []
    for xt in base:
        if xt.tuple_id in deleted:
            continue
        rows.append(upsert_map.pop(xt.tuple_id, xt))
    rows.extend(xt for xt in upserts if xt.tuple_id in upsert_map)
    return XRelation(
        f"{base.name}+delta", base.schema.attributes, rows
    )


def _assert_bitwise_equal(result, scratch):
    assert _quads(result) == _quads(scratch)
    assert result.compared_pairs == scratch.compared_pairs
    assert result.relation_size == scratch.relation_size


# ----------------------------------------------------------------------
# Golden equivalence: every reducer, adds + modify + delete
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_ingest_matches_from_scratch(name, flat_relation, x_relation):
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)
    base, upserts, deletes = split_scenario(relation)

    session = _detector(factory()).session(base)
    initial = session.detect()
    _assert_bitwise_equal(initial, _detector(factory()).detect(base))

    result = session.ingest(upserts, deletes=deletes)
    union = materialized_union(base, upserts, deletes)
    _assert_bitwise_equal(result, _detector(factory()).detect(union))


@pytest.mark.parametrize("name", ["certain_blocking", "snm"])
def test_ingest_matches_from_scratch_parallel(
    name, flat_relation, x_relation
):
    """A session deciding packed tasks of at most 8 pairs ingests like
    a from-scratch detection."""
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)
    base, upserts, deletes = split_scenario(relation)
    session = _detector(factory()).session(base, chunk_size=8)
    session.detect()
    result = session.ingest(upserts, deletes=deletes)
    union = materialized_union(base, upserts, deletes)
    _assert_bitwise_equal(result, _detector(factory()).detect(union))


@pytest.mark.parametrize("name", ["certain_blocking", "snm"])
def test_ingest_matches_from_scratch_spilled(
    name, tmp_path, flat_relation, x_relation
):
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)
    base, upserts, deletes = split_scenario(relation)
    store = base.spill(str(tmp_path / "base"))
    session = _detector(factory()).session(store)
    session.detect()
    result = session.ingest(upserts, deletes=deletes)
    union = materialized_union(base, upserts, deletes)
    _assert_bitwise_equal(result, _detector(factory()).detect(union))


def test_successive_ingests_stay_equal(flat_relation):
    """Three rounds — adds, then modify, then delete — each bitwise."""
    factory = REDUCERS["certain_blocking"][0]
    base, upserts, deletes = split_scenario(flat_relation)
    adds = [xt for xt in upserts if xt.tuple_id.startswith("delta-")]
    modify = [xt for xt in upserts if not xt.tuple_id.startswith("delta-")]
    session = _detector(factory()).session(base)
    session.detect()

    applied_upserts: list = []
    applied_deletes: list = []
    for batch_upserts, batch_deletes in (
        (adds, []),
        (modify, []),
        ([], deletes),
    ):
        applied_upserts.extend(batch_upserts)
        applied_deletes.extend(batch_deletes)
        result = session.ingest(batch_upserts, deletes=batch_deletes)
        union = materialized_union(base, applied_upserts, applied_deletes)
        _assert_bitwise_equal(result, _detector(factory()).detect(union))


# ----------------------------------------------------------------------
# Delta-only execution
# ----------------------------------------------------------------------


def test_untouched_partitions_are_not_re_executed(flat_relation):
    factory = REDUCERS["certain_blocking"][0]
    base, upserts, deletes = split_scenario(flat_relation)
    session = _detector(factory()).session(base)
    session.detect()
    executed_before = session.stats.partitions_executed
    planned_before = session.stats.partitions_planned
    replanned_before = session.stats.partitions_replanned
    assert replanned_before == planned_before
    assert session.stats.keys_computed == len(base)
    session.ingest(upserts, deletes=deletes)
    executed = session.stats.partitions_executed - executed_before
    planned = session.stats.partitions_planned - planned_before
    replanned = session.stats.partitions_replanned - replanned_before
    # Only blocks the delta touched were rebuilt.
    assert 0 < replanned <= executed
    assert "partitions replanned" in session.stats.summary()
    # Only the upserted tuples were re-keyed.
    assert session.stats.keys_computed == len(base) + len(upserts)
    # The delta touches a handful of blocks; the rest splice in.
    assert 0 < executed < planned
    assert session.stats.partitions_reused == planned - executed
    # The refresh's report covers the delta plan only.
    assert session.last_report.partitions == executed


def test_tombstones_record_retracted_pairs(flat_relation):
    factory = REDUCERS["certain_blocking"][0]
    base, _, _ = split_scenario(flat_relation)
    session = _detector(factory()).session(base)
    initial = session.detect()
    victim = next(iter(initial.compared_pairs))[0]
    result = session.ingest(deletes=[victim])
    gone = {
        pair for pair in initial.compared_pairs if victim in pair
    } - result.compared_pairs
    assert set(session.tombstones) == gone
    assert all(victim not in pair for pair in result.compared_pairs)


def _pair_list(result):
    return [(d.left_id, d.right_id) for d in result.decisions]


def _busiest(pairs, exclude=()):
    """The tuple id in most of *pairs* (first such, in pair order)."""
    counts: dict[str, int] = {}
    for pair in pairs:
        for tuple_id in pair:
            if tuple_id not in exclude:
                counts[tuple_id] = counts.get(tuple_id, 0) + 1
    return max(counts, key=counts.get)


def test_delete_only_ingest_decides_no_pair(flat_relation):
    """Deleting a member of a block that keeps pairs re-decides nothing:
    the block's partition is stale, but every pair it still holds is
    spliced from the previous result, so it counts as reused."""
    factory = REDUCERS["certain_blocking"][0]
    base, _, _ = split_scenario(flat_relation)
    session = _detector(factory()).session(base)
    initial = session.detect()
    victim = _busiest(_pair_list(initial))
    stats = session.stats
    executed, reused, planned = (
        stats.pairs_executed,
        stats.partitions_reused,
        stats.partitions_planned,
    )
    fingerprints = set(session.last_fingerprints)
    initial_report = session.last_report
    result = session.ingest(deletes=[victim])
    # The victim's block was re-planned under a new fingerprint ...
    assert set(session.last_fingerprints) - fingerprints
    # ... yet the engine decided no pair, and every partition is reused.
    assert stats.pairs_executed == executed
    # The refresh still publishes its own (empty) report.
    report = session.last_report
    assert report is not initial_report
    assert (report.partitions, report.decided_pairs) == (0, 0)
    assert not report.failures
    assert (
        stats.partitions_reused - reused
        == stats.partitions_planned - planned
    )
    assert session.tombstones == tuple(
        pair for pair in _pair_list(initial) if victim in pair
    )
    _assert_bitwise_equal(
        result,
        _detector(factory()).detect(materialized_union(base, [], [victim])),
    )


def test_moved_tuple_re_decides_only_its_own_pairs(flat_relation):
    """An upsert that moves a tuple into another block re-decides only
    that tuple's new pairs; its old-block pairs are tombstoned, in the
    previous result's order, and both blocks' other pairs are spliced."""
    factory = REDUCERS["certain_blocking"][0]
    base, _, _ = split_scenario(flat_relation)
    session = _detector(factory()).session(base)
    initial = session.detect()
    pairs = _pair_list(initial)
    victim = _busiest(pairs)
    # A donor from a block the victim does not share, with pairs of its
    # own: the victim takes its content and so its block key.
    neighbours = {
        tuple_id for pair in pairs if victim in pair for tuple_id in pair
    }
    donor = _busiest(pairs, exclude=neighbours)
    moved = XTuple(victim, base.get(donor).alternatives)
    executed = session.stats.pairs_executed
    result = session.ingest([moved])
    new_pairs = [pair for pair in _pair_list(result) if victim in pair]
    assert donor in {tuple_id for pair in new_pairs for tuple_id in pair}
    assert session.stats.pairs_executed - executed == len(new_pairs)
    assert session.last_report.decided_pairs == len(new_pairs)
    assert session.tombstones == tuple(
        pair for pair in pairs if victim in pair
    )
    _assert_bitwise_equal(
        result,
        _detector(factory()).detect(materialized_union(base, [moved], [])),
    )


_CONTENT_REDUCER = CertainKeyBlocking(BLOCK_KEY)


def _partition_content(view, partition):
    """Semantic identity of a partition: its pairs + member documents."""
    working_set = view.fetch(partition.members)
    return (
        partition.pairs,
        tuple(
            json.dumps(
                encode_xtuple(working_set[member], exact=True),
                sort_keys=True,
            )
            for member in partition.members
        ),
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_delta_plan_never_contains_an_untouched_partition(
    data, flat_relation
):
    """For random mixes of modifies/deletes/adds, every partition the
    delta plan re-executes differs from all pre-delta partitions, and
    every skipped partition exists untouched in the pre-delta plan."""
    rows = list(flat_relation)
    count = len(rows)
    view = SessionStore(flat_relation)
    before = plan_candidates(_CONTENT_REDUCER, view)
    memo: dict[str, str] = {}
    fps_before = plan_fingerprints(view, before, tuple_fingerprints=memo)
    retained = set(fps_before)
    before_keys = {
        _partition_content(view, partition)
        for partition in before.partitions
    }

    modified = data.draw(
        st.sets(st.integers(0, count - 1), max_size=4), label="modified"
    )
    deleted = (
        data.draw(
            st.sets(st.integers(0, count - 1), max_size=3), label="deleted"
        )
        - modified
    )
    added = data.draw(st.integers(0, 2), label="added")
    for index in sorted(modified):
        donor = rows[(index + 7) % count]
        view.upsert(XTuple(rows[index].tuple_id, donor.alternatives))
        memo.pop(rows[index].tuple_id, None)
    for index in sorted(deleted):
        view.delete(rows[index].tuple_id)
        memo.pop(rows[index].tuple_id, None)
    for extra in range(added):
        view.upsert(XTuple(f"added-{extra}", rows[extra].alternatives))

    after = plan_candidates(_CONTENT_REDUCER, view)
    fps_after = plan_fingerprints(view, after, tuple_fingerprints=memo)
    stale = delta_plan(after, fps_after, retained)

    stale_ids = {id(partition) for partition in stale.partitions}
    for partition, fingerprint in zip(after.partitions, fps_after):
        key = _partition_content(view, partition)
        if id(partition) in stale_ids:
            assert key not in before_keys  # touched: must re-execute
        else:
            assert fingerprint in retained
            assert key in before_keys  # untouched: spliced, not re-run


# ----------------------------------------------------------------------
# Persistence and session mechanics
# ----------------------------------------------------------------------


def test_journal_resume_reuses_all_partitions(tmp_path, flat_relation):
    factory = REDUCERS["certain_blocking"][0]
    base, upserts, deletes = split_scenario(flat_relation)
    journal = str(tmp_path / "session")

    first = _detector(factory()).session(
        base, journal=journal, keep_derivations=False
    )
    first.detect()
    ingested = first.ingest(upserts, deletes=deletes)
    document = stats_document(first)
    assert document["snapshot_bytes"] == first.stats.snapshot_bytes > 0
    assert document["snapshot_compactions"] == 1  # the first save
    assert document["keys_computed"] == len(base) + len(upserts)
    assert document["torn_records"] == 0

    resumed = _detector(factory()).session(
        base, journal=journal, keep_derivations=False
    )
    result = resumed.detect()
    assert _quads(result) == _quads(ingested)
    assert resumed.stats.partitions_executed == 0
    assert (
        resumed.stats.partitions_reused == resumed.stats.partitions_planned
    )
    assert resumed.last_report is None  # nothing ran

    union = materialized_union(base, upserts, deletes)
    scratch = _detector(factory()).detect(union, keep_derivations=False)
    _assert_bitwise_equal(result, scratch)


def test_journal_resume_with_derivations_replans(tmp_path, flat_relation):
    """With derivations kept, decisions are not portable: the resumed
    session replays the journal and recomputes, still bitwise."""
    factory = REDUCERS["certain_blocking"][0]
    base, upserts, deletes = split_scenario(flat_relation)
    journal = str(tmp_path / "session")
    first = _detector(factory()).session(base, journal=journal)
    first.detect()
    ingested = first.ingest(upserts, deletes=deletes)

    resumed = _detector(factory()).session(base, journal=journal)
    result = resumed.detect()
    assert _quads(result) == _quads(ingested)
    assert resumed.stats.partitions_executed > 0


def test_consolidation_session_restricts_to_cross_pairs(flat_relation):
    """within_sources=False answers the ℛ1/ℛ2 question with the session
    delta as the second source: base↔delta pairs only, in union order."""
    factory = REDUCERS["certain_blocking"][0]
    base, upserts, _ = split_scenario(flat_relation)
    adds = [xt for xt in upserts if xt.tuple_id.startswith("delta-")]
    session = _detector(factory()).session(base, within_sources=False)
    assert session.detect().decisions == ()  # single source: all pruned
    result = session.ingest(adds)

    union = materialized_union(base, adds, [])
    scratch = _detector(factory()).detect(union)
    added_ids = {xt.tuple_id for xt in adds}
    expected = [
        quad
        for quad in _quads(scratch)
        if (quad[0] in added_ids) != (quad[1] in added_ids)
    ]
    assert _quads(result) == expected


def test_ingest_validates_operations(flat_relation):
    base, _, _ = split_scenario(flat_relation)
    session = _detector(REDUCERS["certain_blocking"][0]()).session(base)
    with pytest.raises(KeyError):
        session.ingest(deletes=["no-such-id"])
    with pytest.raises(SchemaMismatchError):
        session.ingest(
            [XTuple("bad", (TupleAlternative({"wrong": "v"}, 1.0),))]
        )
