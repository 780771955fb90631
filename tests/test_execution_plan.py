"""The block-aware execution planner: plans, scheduling, streaming.

Two invariant families are pinned here:

* **plan structure** — every reducer's plan partitions its legacy pair
  stream: concatenated plan pairs equal the normalized, deduplicated
  ``pairs()`` sequence *in order*, and no pair appears in two
  partitions;
* **execution equivalence** — execution at the default chunk size,
  packed at a small one, and ``stream=True`` all produce exactly the
  decisions of the reference oracle (the seed behavior), for every
  reducer family of Section V.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.pdb.relations import XRelation
from repro.reduction import (
    AlternativeKeyBlocking,
    AlternativeSorting,
    CandidatePlan,
    CertainKeyBlocking,
    MultiPassBlocking,
    MultiPassSNM,
    PhoneticBlocking,
    PlanBuilder,
    SortedNeighborhood,
    SubstringKey,
    UncertainKeyClusteringBlocking,
    UncertainKeySNM,
    pairs_from_blocks,
    plan_candidates,
    plan_from_blocks,
)
from repro.similarity.kernels import SimilarityCache

SORT_KEY = SubstringKey([("name", 3), ("job", 2)])
BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])


def r34() -> XRelation:
    """The paper's ℛ34 (5 x-tuples) — small enough for world passes."""
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


#: Reducer factories and which fixture-backed relation they run on.
#: Multi-pass strategies enumerate full worlds, so they get the tiny ℛ34.
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


def _legacy_unique_pairs(reducer, relation):
    """The pair sequence the seed pipeline compared, in order."""
    seen = set()
    ordered = []
    for left, right in reducer.pairs(relation):
        if left == right:
            continue
        pair = (left, right) if left <= right else (right, left)
        if pair in seen:
            continue
        seen.add(pair)
        ordered.append(pair)
    return ordered


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


# ----------------------------------------------------------------------
# Plan structure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_plan_partitions_legacy_pair_stream(
    name, flat_relation, x_relation
):
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)
    reducer = factory()
    plan = plan_candidates(reducer, relation)
    assert isinstance(plan, CandidatePlan)
    assert plan.relation_size == len(relation)
    # Concatenated plan pairs == legacy order; no pair twice.
    assert list(plan.pairs()) == _legacy_unique_pairs(factory(), relation)
    flat = [pair for partition in plan for pair in partition.pairs]
    assert len(flat) == len(set(flat)) == plan.total_pairs
    for partition in plan:
        assert partition.pairs, "empty partitions must not be recorded"
        touched = {tuple_id for pair in partition.pairs for tuple_id in pair}
        assert set(partition.members) == touched


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_partition_pairs_stay_normalized(name, flat_relation, x_relation):
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)
    plan = plan_candidates(factory(), relation)
    for partition in plan:
        for left, right in partition.pairs:
            assert left < right


def test_legacy_pairs_only_reducer_gets_single_partition(flat_relation):
    class PairsOnly:
        def pairs(self, relation):
            ids = relation.tuple_ids[:6]
            for i, left in enumerate(ids):
                for right in ids[i + 1 :]:
                    yield left, right
                    yield right, left  # duplicates must be dropped

    plan = plan_candidates(PairsOnly(), flat_relation)
    assert len(plan) == 1
    assert plan.partitions[0].label == "all"
    assert plan.total_pairs == 15


def test_blocking_plan_matches_blocks(x_relation):
    blocking = CertainKeyBlocking(BLOCK_KEY)
    plan = blocking.plan(x_relation)
    blocks = blocking.blocks(x_relation)
    multi = {
        key: members
        for key, members in blocks.items()
        if len(members) > 1
    }
    assert len(plan) == len(multi)
    for partition, (key, members) in zip(plan, multi.items()):
        assert partition.label == f"block:{key}"
        assert set(partition.members) <= set(members)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(
        st.lists(
            st.integers(min_value=0, max_value=12).map("t{}".format),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_plan_from_blocks_equals_pairs_from_blocks(blocks):
    """Property: block plans reproduce the legacy flattened stream."""
    mapping = {f"b{i}": members for i, members in enumerate(blocks)}
    plan = plan_from_blocks(mapping, relation_size=13, source="prop")
    assert list(plan.pairs()) == list(pairs_from_blocks(mapping))


_BLOCK_LISTS = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=12).map("t{}".format),
        min_size=1,
        max_size=5,
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(generations=st.lists(_BLOCK_LISTS, min_size=1, max_size=4))
def test_memoized_block_plans_equal_fresh_plans(generations):
    """Property: a partition memo carried across plans never changes a
    plan, and is left holding only the latest plan's partitions."""
    memo = {}
    for blocks in generations:
        mapping = {f"b{i}": members for i, members in enumerate(blocks)}
        memoized = plan_from_blocks(
            mapping, relation_size=13, source="prop", memo=memo
        )
        assert memoized == plan_from_blocks(
            mapping, relation_size=13, source="prop"
        )
        kept = {id(partition) for partition in memoized}
        assert all(id(partition) in kept for partition in memo.values())


def test_block_memo_reuses_untouched_partitions():
    """Unchanged blocks keep their partition object; a changed block is
    rebuilt; from the first block overlapping earlier members on, the
    cross-block dedup applies and nothing more is memoized."""
    memo = {}

    def plan(mapping):
        return plan_from_blocks(
            mapping, relation_size=5, source="memo", memo=memo
        )

    first = plan({"a": ["t1", "t2"], "b": ["t3", "t4", "t5"]})
    second = plan({"a": ["t1", "t2"], "b": ["t3", "t5"]})
    assert second.partitions[0] is first.partitions[0]
    assert second.partitions[1].pairs == (("t3", "t5"),)
    assert set(memo) == {
        ("block:a", ("t1", "t2")),
        ("block:b", ("t3", "t5")),
    }
    third = plan({"a": ["t1", "t2"], "b": ["t2", "t1", "t3"]})
    assert third.partitions[0] is first.partitions[0]
    assert third.partitions[1].pairs == (("t2", "t3"), ("t1", "t3"))
    assert set(memo) == {("block:a", ("t1", "t2"))}


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9).map("t{}".format),
            st.integers(min_value=0, max_value=9).map("t{}".format),
        ),
        max_size=40,
    ),
    split=st.integers(min_value=1, max_value=40),
)
def test_plan_builder_dedups_like_the_pipeline(pairs, split):
    """Property: builder output is invariant under partition boundaries."""
    one = PlanBuilder()
    one.add("all", pairs)
    two = PlanBuilder()
    two.add("head", pairs[:split])
    two.add("tail", pairs[split:])
    plan_one = one.build(relation_size=10, source="prop")
    plan_two = two.build(relation_size=10, source="prop")
    assert list(plan_one.pairs()) == list(plan_two.pairs())


# ----------------------------------------------------------------------
# Execution equivalence (the acceptance pin)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_partitioned_and_streamed_match_serial_seed_pipeline(
    name, flat_relation, x_relation, oracle
):
    """Partitioned, packed and streamed execution are bitwise-serial."""
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)

    def detector():
        return DuplicateDetector(
            default_matcher(), weighted_model(), reducer=factory()
        )

    reference = oracle(detector(), relation)
    partitioned = detector().detect(relation)
    packed = detector().detect(relation, chunk_size=7)
    slices = list(detector().detect(relation, stream=True))

    assert _triples(partitioned) == _triples(reference)
    assert _triples(packed) == _triples(reference)
    assert partitioned.compared_pairs == reference.compared_pairs
    assert packed.compared_pairs == reference.compared_pairs

    streamed = [triple for piece in slices for triple in _triples(piece)]
    assert streamed == _triples(reference)
    plan = plan_candidates(factory(), relation)
    assert [piece.partition_label for piece in slices] == [
        partition.label for partition in plan
    ]
    union = frozenset().union(*(s.compared_pairs for s in slices)) if slices else frozenset()
    assert union == reference.compared_pairs


def test_stream_slices_align_with_partitions(x_relation):
    reducer = CertainKeyBlocking(BLOCK_KEY)
    detector = DuplicateDetector(
        default_matcher(), weighted_model(), reducer=reducer
    )
    plan = reducer.plan(x_relation)
    slices = list(detector.detect(x_relation, stream=True))
    assert len(slices) == len(plan)
    for piece, partition in zip(slices, plan):
        assert len(piece.decisions) == len(partition.pairs)
        assert piece.compared_pairs == frozenset(partition.pairs)


def test_keep_compared_pairs_false_drops_the_pair_set(flat_relation):
    def detector():
        return DuplicateDetector(default_matcher(), weighted_model())

    reference = detector().detect(flat_relation)
    slim = detector().detect(flat_relation, keep_compared_pairs=False)
    assert _triples(slim) == _triples(reference)
    assert slim.compared_pairs == frozenset()
    # Clustering still works from the decisions alone.
    assert slim.clusters().clusters == reference.clusters().clusters


def test_detector_plan_exposes_the_execution_plan(x_relation):
    reducer = CertainKeyBlocking(BLOCK_KEY)
    detector = DuplicateDetector(
        default_matcher(), weighted_model(), reducer=reducer
    )
    plan = detector.plan(x_relation)
    assert list(plan.pairs()) == _legacy_unique_pairs(reducer, x_relation)


# ----------------------------------------------------------------------
# Banded kernels / cache threading in the reducers
# ----------------------------------------------------------------------


def test_uncertain_clustering_cache_matches_uncached(x_relation):
    cached = UncertainKeyClusteringBlocking(BLOCK_KEY, radius=0.4)
    uncached = UncertainKeyClusteringBlocking(
        BLOCK_KEY, radius=0.4, cache=False
    )
    assert cached.cache is not None
    assert uncached.cache is None
    assert cached.clusters(x_relation) == uncached.clusters(x_relation)
    assert cached.cache.hits + cached.cache.misses > 0


def test_normalized_key_distance_matches_reference():
    from repro.reduction import normalized_key_distance
    from repro.similarity.edit import levenshtein_distance

    samples = ["", "Jo", "Johpi", "Johmu", "Timu", "Suba", "Johannes"]
    for left in samples:
        for right in samples:
            longest = max(len(left), len(right))
            expected = (
                levenshtein_distance(left, right) / longest
                if longest
                else 0.0
            )
            assert normalized_key_distance(left, right) == expected


def test_expected_key_distance_accepts_distance_kernel():
    from repro.reduction import expected_key_distance, normalized_key_distance

    left = [("Johpi", 0.7), ("Johmu", 0.3)]
    right = [("Johpi", 1.0)]
    cache = SimilarityCache(normalized_key_distance, reflexive_value=0.0)
    plain = expected_key_distance(left, right)
    threaded = expected_key_distance(left, right, distance=cache)
    assert plain == threaded
    assert cache.misses > 0
    # Re-evaluation is answered from the memo.
    assert expected_key_distance(left, right, distance=cache) == plain
    assert cache.hits > 0
