"""Bench: block-aware execution planner.

The planner hands the engine whole block partitions (coherent cache
working sets) — these benches track that plan construction and
streamed detection stay cheap.
"""

from __future__ import annotations

import os

import pytest

#: compare_bench.py --quick exports BENCH_QUICK=1; pedantic benches drop
#: to one round then so the CI smoke stays fast.
ROUNDS = 1 if os.environ.get("BENCH_QUICK") else 3

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector
from repro.reduction import (
    CertainKeyBlocking,
    SubstringKey,
    plan_candidates,
)

BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])


@pytest.fixture(scope="module")
def planner_dataset():
    """Large enough that decide work dominates per-partition overhead."""
    return generate_dataset(
        DatasetConfig(entity_count=1200, seed=47), flat=True
    )


def _detector():
    return DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
    )


def test_bench_planner_plan_construction(benchmark, planner_dataset):
    """Planning itself must stay a sliver of detection time."""
    relation = planner_dataset.relation
    reducer = CertainKeyBlocking(BLOCK_KEY)
    plan = benchmark(lambda: plan_candidates(reducer, relation))
    assert plan.total_pairs > 0


def test_bench_planner_streamed_detection(benchmark, planner_dataset):
    """Streaming per-partition slices without the global pair set."""
    relation = planner_dataset.relation

    def run():
        total = 0
        for piece in _detector().detect(
            relation,
            stream=True,
            keep_derivations=False,
            keep_compared_pairs=False,
        ):
            total += len(piece.decisions)
        return total

    total = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert total > 0
