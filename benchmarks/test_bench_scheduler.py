"""Bench: multi-source consolidation on a skewed plan.

The workload is the planner's worst case: one giant block holding ~50%
of all candidate pairs next to many small blocks, with every value a
distinct long random word so the similarity kernels dominate.  The
fault benches (``test_bench_faults.py``) reuse it.

* ``multisource_between`` — the ℛ1/ℛ2 consolidation scenario:
  ``detect_between`` over the two-source view vs materializing the
  union first; the view must cost no measurable premium.
* ``chunk_sweep`` — full comparison of a seeded flat relation at
  ``chunk_size`` 256 and 4096: the per-batch fixed cost of the batched
  decide, tracked by the CI smoke subset.
"""

from __future__ import annotations

import os
import random

import pytest

#: compare_bench.py --quick exports BENCH_QUICK=1; pedantic benches drop
#: to one round then so the CI smoke stays fast.
ROUNDS = 1 if os.environ.get("BENCH_QUICK") else 3

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.pdb.relations import XRelation
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.reduction import (
    CertainKeyBlocking,
    SubstringKey,
    plan_candidates,
)

BLOCK_KEY = SubstringKey([("name", 1)])

#: Giant-block members; the block carries ~50% of all candidate pairs.
GIANT_MEMBERS = 160
#: Small blocks: one per letter, GIANT/4 members each.
SMALL_LETTERS = "abcdefghijklmnop"
SMALL_MEMBERS = 40


def _skewed_relation(seed: int = 20100) -> XRelation:
    """One 160-member block ('z…') plus 16 small 40-member blocks.

    Values are long random words so the similarity kernels dominate,
    and every value is distinct, so no cache entry is ever reused
    across pairs.
    """
    rng = random.Random(seed)

    def word(prefix: str, length: int = 14) -> str:
        return prefix + "".join(
            rng.choice("aeioubcdfgstlmnr") for _ in range(length)
        )

    tuples = [
        XTuple(
            f"g{i:04d}",
            (TupleAlternative({"name": word("z"), "job": word("q")}, 1.0),),
        )
        for i in range(GIANT_MEMBERS)
    ]
    for block, letter in enumerate(SMALL_LETTERS):
        tuples.extend(
            XTuple(
                f"s{block:02d}{i:03d}",
                (
                    TupleAlternative(
                        {"name": word(letter), "job": word("r")}, 1.0
                    ),
                ),
            )
            for i in range(SMALL_MEMBERS)
        )
    rng.shuffle(tuples)
    return XRelation("skewed", ("name", "job"), tuples)


@pytest.fixture(scope="module")
def skewed_relation():
    relation = _skewed_relation()
    plan = plan_candidates(CertainKeyBlocking(BLOCK_KEY), relation)
    largest = max(len(partition) for partition in plan)
    assert largest / plan.total_pairs > 0.45  # the skew premise
    return relation


def _detector():
    return DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
    )


def test_bench_scheduler_multisource_between(benchmark, skewed_relation):
    """Consolidating two sources through the view vs the union copy."""
    ids = skewed_relation.tuple_ids
    half = len(ids) // 2
    left = XRelation(
        "L",
        skewed_relation.schema,
        [skewed_relation.get(i) for i in ids[:half]],
    )
    right = XRelation(
        "R",
        skewed_relation.schema,
        [skewed_relation.get(i) for i in ids[half:]],
    )
    expected = len(
        _detector().detect(left.union(right), keep_derivations=False).decisions
    )

    def run():
        return _detector().detect_between(
            left, right, keep_derivations=False
        )

    result = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert len(result.decisions) == expected


@pytest.fixture(scope="module")
def sweep_relation():
    """A seeded flat relation for full comparison (~16k pairs)."""
    return generate_dataset(
        DatasetConfig(entity_count=120, seed=30), flat=True
    ).relation


@pytest.fixture(scope="module")
def sweep_decisions(sweep_relation):
    """Decisions of the sweep's detection in one batch per 16k pairs,
    the reference every chunk size must reproduce bitwise."""
    return _bitwise(
        DuplicateDetector(
            default_matcher(), weighted_model(), reducer=FullComparison()
        )
        .detect(sweep_relation, keep_derivations=False, chunk_size=1 << 14)
        .decisions
    )


def _bitwise(decisions):
    return [
        (d.left_id, d.right_id, d.status, repr(d.similarity))
        for d in decisions
    ]


@pytest.mark.parametrize("chunk_size", [256, 4096])
def test_bench_chunk_sweep(
    benchmark, sweep_relation, sweep_decisions, chunk_size
):
    """Full comparison at a small and the default chunk size, each
    round with a fresh detector (cold caches).  The gap between the
    two rows is the per-batch fixed cost of the batched decide; both
    sizes decide the same, bit for bit."""

    def run():
        return DuplicateDetector(
            default_matcher(), weighted_model(), reducer=FullComparison()
        ).detect(
            sweep_relation, keep_derivations=False, chunk_size=chunk_size
        )

    result = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert _bitwise(result.decisions) == sweep_decisions
