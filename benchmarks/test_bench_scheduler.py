"""Bench: multi-source consolidation on a skewed plan.

The workload is the planner's worst case: one giant block holding ~50%
of all candidate pairs next to many small blocks, with every value a
distinct long random word so the similarity kernels dominate.  The
fault benches (``test_bench_faults.py``) reuse it.

* ``multisource_between`` — the ℛ1/ℛ2 consolidation scenario:
  ``detect_between`` over the two-source view vs materializing the
  union first; the view must cost no measurable premium.
"""

from __future__ import annotations

import os
import random

import pytest

#: compare_bench.py --quick exports BENCH_QUICK=1; pedantic benches drop
#: to one round then so the CI smoke stays fast.
ROUNDS = 1 if os.environ.get("BENCH_QUICK") else 3

from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector
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
