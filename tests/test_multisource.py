"""Golden suite for multi-source detection (ℛ1/ℛ2 consolidation).

The acceptance pin: for every Section-V reducer,
``detect_between(left, right)`` — planned over the
:class:`~repro.pdb.storage.MultiSourceStore` *view*, never a
materialized union — produces bitwise the decisions of
``detect(left.union(right))``, at the default chunk, packed at a small
one, streamed, and with both sources spilled to out-of-core stores.

On top of the pin: source tagging, cross-source pruning
(``within_sources=False`` equals the union run filtered to cross
pairs), per-source preparation hooks, and the view's store semantics
(multi-store working-set fetch, id collision / schema mismatch errors).
"""

from __future__ import annotations

import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.matching.executor import cross_source_plan, plan_sources
from repro.pdb.errors import DuplicateTupleIdError, SchemaMismatchError
from repro.pdb.io import open_store
from repro.pdb.relations import XRelation
from repro.pdb.storage import (
    MultiSourceStore,
    XTupleStore,
    combine_sources,
    fetch_tuples,
)
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
    plan_candidates,
)

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


def _halves(relation: XRelation) -> tuple[XRelation, XRelation]:
    """Split one fixture relation into two autonomous 'sources'."""
    ids = relation.tuple_ids
    half = len(ids) // 2
    return (
        XRelation("Left", relation.schema, [relation.get(i) for i in ids[:half]]),
        XRelation("Right", relation.schema, [relation.get(i) for i in ids[half:]]),
    )


@pytest.fixture(scope="module")
def flat_halves():
    return _halves(
        generate_dataset(
            DatasetConfig(entity_count=20, seed=91), flat=True
        ).relation
    )


@pytest.fixture(scope="module")
def x_halves():
    return _halves(
        generate_dataset(DatasetConfig(entity_count=12, seed=93)).relation
    )


@pytest.fixture(scope="module")
def spilled_halves(tmp_path_factory, flat_halves, x_halves):
    """Every source spilled separately, with a tiny tuple cache."""
    root = tmp_path_factory.mktemp("sources")
    spilled = {}
    for kind, halves in (
        ("flat", flat_halves),
        ("x", x_halves),
        ("r34", _halves(r34())),
    ):
        paths = []
        for side, relation in zip(("left", "right"), halves):
            path = str(root / f"{kind}-{side}")
            relation.spill(path, segment_size=5, page_size=4, max_pages=3)
            paths.append(path)
        spilled[kind] = tuple(paths)
    return spilled


#: The same ten-reducer matrix the planner/storage/pushdown suites pin.
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


def _halves_for(kind, flat_halves, x_halves):
    if kind == "flat":
        return flat_halves
    if kind == "x":
        return x_halves
    return _halves(r34())


def _detector(factory):
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=factory()
    )


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


# ----------------------------------------------------------------------
# Golden equivalence: detect_between == detect(union), all reducers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_detect_between_is_bitwise_the_union_run(
    name, flat_halves, x_halves, spilled_halves
):
    """The acceptance pin: default / packed / streamed / spilled."""
    factory, kind = REDUCERS[name]
    left, right = _halves_for(kind, flat_halves, x_halves)
    reference = _detector(factory).detect(left.union(right))

    serial = _detector(factory).detect_between(left, right)
    packed = _detector(factory).detect_between(left, right, chunk_size=7)
    slices = list(
        _detector(factory).detect_between(
            left, right, stream=True, keep_compared_pairs=False
        )
    )

    assert _triples(serial) == _triples(reference)
    assert _triples(packed) == _triples(reference)
    assert serial.compared_pairs == reference.compared_pairs
    assert serial.relation_size == reference.relation_size

    streamed = [t for piece in slices for t in _triples(piece)]
    assert streamed == _triples(reference)
    union_plan = plan_candidates(factory(), left.union(right))
    assert [piece.partition_label for piece in slices] == [
        partition.label for partition in union_plan
    ]

    # Both sources spilled: no union is ever materialized — the view
    # fetches working sets from each store separately.
    left_path, right_path = spilled_halves[kind]
    left_store = open_store(left_path, page_size=4, max_pages=3)
    right_store = open_store(right_path, page_size=4, max_pages=3)
    spilled = _detector(factory).detect_between(left_store, right_store)
    assert _triples(spilled) == _triples(reference)
    spilled_packed = _detector(factory).detect_between(
        left_store, right_store, chunk_size=7
    )
    assert _triples(spilled_packed) == _triples(reference)


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_cross_only_equals_filtered_union_run(
    name, flat_halves, x_halves
):
    """within_sources=False == union decisions filtered to cross pairs."""
    factory, kind = REDUCERS[name]
    left, right = _halves_for(kind, flat_halves, x_halves)
    reference = _detector(factory).detect(left.union(right))
    left_ids = set(left.tuple_ids)

    cross = _detector(factory).detect_between(
        left, right, within_sources=False
    )
    expected = [
        t
        for t in _triples(reference)
        if (t[0] in left_ids) != (t[1] in left_ids)
    ]
    assert _triples(cross) == expected


def test_custom_key_strategy_disables_zone_pruning():
    """Zone maps bound raw outcomes, so a key strategy that maps them
    elsewhere (here: case folding) must not let "Anna" and "anna" —
    disjoint zones, one shared block key — be pruned apart."""
    from repro.pdb.xtuples import XTuple
    from repro.reduction import most_probable_key

    def folded(xtuple, key):
        return most_probable_key(xtuple, key).lower()

    left = XRelation("A", ("name",), [XTuple.certain("a1", {"name": "Anna"})])
    right = XRelation("B", ("name",), [XTuple.certain("b1", {"name": "anna"})])
    factory = lambda: CertainKeyBlocking(  # noqa: E731
        SubstringKey([("name", 1)]), key_strategy=folded
    )
    reference = _detector(factory).detect(left.union(right))
    assert [t[:2] for t in _triples(reference)] == [("a1", "b1")]
    cross = _detector(factory).detect_between(
        left, right, within_sources=False
    )
    assert _triples(cross) == _triples(reference)
    assert factory().prune_key is None


def test_detect_between_is_stealing_compatible(flat_halves):
    left, right = flat_halves
    factory = lambda: CertainKeyBlocking(BLOCK_KEY)  # noqa: E731
    reference = _detector(factory).detect(left.union(right))
    packed = _detector(factory).detect_between(left, right, chunk_size=7)
    assert _triples(packed) == _triples(reference)


# ----------------------------------------------------------------------
# Source tags and pruning
# ----------------------------------------------------------------------


def test_plan_sources_tags_every_partition(x_halves):
    left, right = x_halves
    view = MultiSourceStore([left, right])
    plan = plan_sources(CertainKeyBlocking(BLOCK_KEY), view)
    assert plan.source_names == ("Left", "Right")
    assert plan.partitions
    for partition in plan.partitions:
        assert partition.sources is not None
        assert set(partition.sources) <= {"Left", "Right"}
        expected = tuple(
            dict.fromkeys(view.source_of(m) for m in partition.members)
        )
        assert partition.sources == expected
    # The tagged plan still equals the union plan pair for pair.
    union_plan = plan_candidates(
        CertainKeyBlocking(BLOCK_KEY), left.union(right)
    )
    assert list(plan.pairs()) == list(union_plan.pairs())


def test_cross_source_plan_prunes_single_source_partitions(x_halves):
    left, right = x_halves
    view = MultiSourceStore([left, right])
    plan = plan_sources(CertainKeyBlocking(BLOCK_KEY), view)
    cross = cross_source_plan(plan, view)
    assert "[cross-source]" in cross.source
    kept_labels = {partition.label for partition in cross.partitions}
    for partition in plan.partitions:
        if len(partition.sources) < 2:
            assert partition.label not in kept_labels
    for partition in cross.partitions:
        assert len(partition.sources) == 2
        for pair in partition.pairs:
            assert view.source_of(pair[0]) != view.source_of(pair[1])
    # Cross pairs are a subsequence of the tagged plan's pair order.
    cross_pairs = list(cross.pairs())
    order = {pair: i for i, pair in enumerate(plan.pairs())}
    assert cross_pairs == sorted(cross_pairs, key=order.__getitem__)


def test_cross_source_plan_requires_tags(x_halves):
    left, right = x_halves
    view = MultiSourceStore([left, right])
    untagged = plan_candidates(CertainKeyBlocking(BLOCK_KEY), view)
    with pytest.raises(ValueError, match="source-tagged"):
        cross_source_plan(untagged, view)


# ----------------------------------------------------------------------
# Per-source preparation (facade satellite)
# ----------------------------------------------------------------------


def test_preparation_hook_runs_per_source_before_planning(flat_halves):
    left, right = flat_halves
    prepared_names: list[str] = []

    def prepare(relation: XRelation) -> XRelation:
        prepared_names.append(relation.name)
        return XRelation(
            relation.name,
            relation.schema,
            list(relation),
        )

    factory = lambda: CertainKeyBlocking(BLOCK_KEY)  # noqa: E731
    detector = DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=factory(),
        preparation=prepare,
    )
    result = detector.detect_between(left, right)
    # The hook saw each autonomous source separately — never the union.
    assert prepared_names == ["Left", "Right"]
    reference = _detector(factory).detect(left.union(right))
    assert _triples(result) == _triples(reference)


def test_preparation_hook_rejects_store_sources(tmp_path, flat_halves):
    left, right = flat_halves
    store = left.spill(str(tmp_path / "left"))
    detector = DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
        preparation=lambda relation: relation,
    )
    with pytest.raises(TypeError, match="materialize each store"):
        detector.detect_between(store, right)


# ----------------------------------------------------------------------
# The view's store semantics
# ----------------------------------------------------------------------


def test_view_satisfies_the_store_protocol(x_halves):
    left, right = x_halves
    view = MultiSourceStore([left, right])
    union = left.union(right)
    assert isinstance(view, XTupleStore)
    assert view.tuple_ids == union.tuple_ids
    assert len(view) == len(union)
    assert view.schema == union.schema
    some = union.tuple_ids[0]
    assert some in view and "no-such-id" not in view
    assert view.get(some).tuple_id == some
    with pytest.raises(KeyError):
        view.get("no-such-id")
    assert [xt.tuple_id for xt in view] == list(union.tuple_ids)


def test_view_fetch_preserves_request_order(x_halves):
    left, right = x_halves
    view = MultiSourceStore([left, right])
    # Interleave sources; the merged mapping must keep request order.
    wanted = [
        tuple_id
        for pair in zip(left.tuple_ids, right.tuple_ids)
        for tuple_id in reversed(pair)
    ]
    working_set = view.fetch(wanted)
    assert list(working_set) == wanted
    assert working_set == fetch_tuples(left.union(right), wanted)
    with pytest.raises(KeyError):
        view.fetch(["no-such-id"])


def test_view_rejects_id_collisions_and_schema_mismatch(x_halves):
    left, _ = x_halves
    with pytest.raises(DuplicateTupleIdError):
        MultiSourceStore([left, left])
    other_schema = XRelation("Other", ("name",), [])
    with pytest.raises(SchemaMismatchError):
        MultiSourceStore([left, other_schema])
    with pytest.raises(ValueError):
        MultiSourceStore([])


def test_view_disambiguates_colliding_source_names(x_halves):
    left, right = x_halves
    renamed = XRelation("Left", right.schema, list(right))
    view = MultiSourceStore([left, renamed])
    assert view.source_names == ("Left#0", "Left#1")
    assert view.source_of(left.tuple_ids[0]) == "Left#0"
    assert view.source_of(renamed.tuple_ids[0]) == "Left#1"


def test_combine_sources_passes_single_store_through(x_halves):
    left, right = x_halves
    assert combine_sources([left]) is left
    view = combine_sources([left, right])
    assert isinstance(view, MultiSourceStore)
    assert view.name == "Left∪Right"


def test_three_way_consolidation(flat_halves, x_halves):
    """detect_between takes N sources, not just two."""
    left, right = flat_halves
    third_ids = right.tuple_ids[: len(right.tuple_ids) // 2]
    second = XRelation(
        "Mid", right.schema, [right.get(i) for i in third_ids]
    )
    rest = XRelation(
        "Tail",
        right.schema,
        [right.get(i) for i in right.tuple_ids[len(third_ids):]],
    )
    factory = lambda: CertainKeyBlocking(BLOCK_KEY)  # noqa: E731
    reference = _detector(factory).detect(
        left.union(second).union(rest)
    )
    threeway = _detector(factory).detect_between(left, second, rest)
    assert _triples(threeway) == _triples(reference)
