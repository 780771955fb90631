"""One seeded differential test over the execution lattice.

Scheduling may change the order of work but never a result, so every
sampled configuration must decide exactly what the reference oracle
(``tests/conftest.py``) decides, bit for bit: any of the ten reducers,
in-process or on a two-worker pool, any split budget, collected or
streamed, in memory or spilled in either layout, under a clean
two-attempt retry policy that degrades or raises on exhaustion.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.matching.executor import RetryPolicy
from repro.pdb.io import open_store
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

#: The ten reducers and the relation each runs on; the multi-pass
#: strategies enumerate possible worlds, so they get the tiny ℛ34.
REDUCERS = {
    "full": (FullComparison, "flat"),
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
    "phonetic_blocking": (PhoneticBlocking, "x"),
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


def _r34() -> XRelation:
    from repro.experiments.paper_data import MU_JOBS, relation_r34

    return XRelation(
        "R34x",
        ("name", "job"),
        [
            xt.expand_patterns({"job": MU_JOBS}).expand()
            for xt in relation_r34()
        ],
    )


def _detector(name):
    factory, _kind = REDUCERS[name]
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=factory()
    )


def _triples(decisions):
    return [(d.left_id, d.right_id, d.status, d.similarity) for d in decisions]


@pytest.fixture(scope="module")
def relations():
    return {
        "flat": generate_dataset(
            DatasetConfig(entity_count=14, seed=61), flat=True
        ).relation,
        "x": generate_dataset(DatasetConfig(entity_count=9, seed=63)).relation,
        "r34": _r34(),
    }


@pytest.fixture(scope="module")
def spilled(tmp_path_factory, relations):
    """Every relation spilled in both on-disk layouts."""
    root = tmp_path_factory.mktemp("lattice")
    paths = {}
    for kind, relation in relations.items():
        for layout in ("rows", "columnar"):
            path = str(root / f"{kind}-{layout}")
            relation.spill(path, layout=layout, segment_size=5).close()
            paths[kind, layout] = path
    return paths


@pytest.fixture(scope="module")
def references(relations, oracle):
    return {
        name: _triples(oracle(_detector(name), relations[kind]).decisions)
        for name, (_factory, kind) in REDUCERS.items()
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(REDUCERS)),
    n_jobs=st.sampled_from((1, 2)),
    split_pairs=st.integers(min_value=1, max_value=40),
    stream=st.booleans(),
    storage=st.sampled_from(("memory", "rows", "columnar")),
    on_error=st.sampled_from(("degrade", "raise")),
)
def test_sampled_configuration_decides_like_the_oracle(
    relations,
    spilled,
    references,
    name,
    n_jobs,
    split_pairs,
    stream,
    storage,
    on_error,
):
    kind = REDUCERS[name][1]
    if storage == "memory":
        relation = relations[kind]
    else:
        relation = open_store(
            spilled[kind, storage], page_size=4, max_pages=3
        )
    detector = _detector(name)
    try:
        result = detector.detect(
            relation,
            n_jobs=n_jobs,
            split_pairs=split_pairs,
            chunk_size=7,
            stream=stream,
            retry=RetryPolicy(max_attempts=2),
            on_error=on_error,
        )
        if stream:
            slices = list(result)
            assert [piece.partition_label for piece in slices] == [
                partition.label for partition in detector.plan(relation)
            ]
            decisions = [d for piece in slices for d in piece.decisions]
        else:
            decisions = result.decisions
        assert _triples(decisions) == references[name]
    finally:
        if storage != "memory":
            relation.close()
    report = detector.last_report
    assert report.worker_crashes + report.worker_timeouts == 0
    assert not report.failures
