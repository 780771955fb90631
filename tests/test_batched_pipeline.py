"""The batched execution modes of :meth:`DuplicateDetector.detect`.

Every execution mode — chunked, derivation-dropping — must produce
exactly the same decisions as the plain pipeline; only resource usage
may differ.
"""

from __future__ import annotations

import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        DatasetConfig(entity_count=25, seed=71), flat=True
    )


@pytest.fixture(scope="module")
def reference(dataset):
    detector = DuplicateDetector(default_matcher(), weighted_model())
    return detector.detect(dataset.relation)


def _decision_triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


def test_chunked_detection_matches_reference(dataset, reference):
    detector = DuplicateDetector(default_matcher(), weighted_model())
    chunked = detector.detect(dataset.relation, chunk_size=7)
    assert chunked.compared_pairs == reference.compared_pairs
    assert _decision_triples(chunked) == _decision_triples(reference)


def test_keep_derivations_false_drops_matrices(dataset, reference):
    detector = DuplicateDetector(default_matcher(), weighted_model())
    slim = detector.detect(dataset.relation, keep_derivations=False)
    assert _decision_triples(slim) == _decision_triples(reference)
    assert all(d.derivation_input is None for d in slim.decisions)
    assert all(d.derivation_input is not None for d in reference.decisions)


def test_detect_between_forwards_options(dataset):
    from repro.pdb.relations import XRelation

    detector = DuplicateDetector(default_matcher(), weighted_model())
    tuples = list(dataset.relation)
    half = len(tuples) // 2
    left = XRelation("L", dataset.relation.schema, tuples[:half])
    right = XRelation("R", dataset.relation.schema, tuples[half:])
    result = detector.detect_between(left, right, keep_derivations=False)
    assert all(d.derivation_input is None for d in result.decisions)


def test_invalid_options_raise(dataset):
    detector = DuplicateDetector(default_matcher(), weighted_model())
    with pytest.raises(ValueError):
        detector.detect(dataset.relation, chunk_size=0)
