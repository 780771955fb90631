"""Shared cases of the storage suites (``test_storage_backends.py``,
``test_columnar.py``): the fixture relations, their spilled stores, the
ten-reducer matrix and the exact-comparison helpers.

Test modules import the fixtures by name, so each module still gets
its own module-scoped instances.
"""

from __future__ import annotations

import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.pdb.relations import XRelation
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


@pytest.fixture(scope="module")
def flat_relation():
    return generate_dataset(
        DatasetConfig(entity_count=20, seed=91), flat=True
    ).relation


@pytest.fixture(scope="module")
def x_relation():
    return generate_dataset(DatasetConfig(entity_count=12, seed=93)).relation


@pytest.fixture(scope="module")
def stores(tmp_path_factory, flat_relation, x_relation):
    """Every fixture relation spilled once, small segments/pages."""
    root = tmp_path_factory.mktemp("stores")
    spilled = {}
    for kind, relation in (
        ("flat", flat_relation),
        ("x", x_relation),
        ("r34", r34()),
    ):
        relation.spill(
            str(root / kind), segment_size=7, page_size=4, max_pages=3
        )
        spilled[kind] = str(root / kind)
    return spilled


#: Reducer factories and which fixture-backed relation they run on —
#: the same ten-reducer matrix the planner suite pins.
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


def relation_for(kind, flat_relation, x_relation):
    if kind == "flat":
        return flat_relation
    if kind == "x":
        return x_relation
    return r34()


def build_detector(factory):
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=factory()
    )


def triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


def exact_value_items(relation):
    """Every value's exact ``(outcome, probability)`` sequence, per id."""
    return {
        xtuple.tuple_id: [
            (
                alternative.probability,
                {
                    attribute: list(alternative.value(attribute).items())
                    for attribute in alternative.attributes
                },
            )
            for alternative in xtuple.alternatives
        ]
        for xtuple in relation
    }
