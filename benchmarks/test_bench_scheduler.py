"""Bench: skew-aware work stealing on a skewed plan.

The workload is the planner's worst case: one giant block holding ~50%
of all candidate pairs next to many small blocks.  Pre-warming every
partition's candidate similarities in the parent before forking would
make that serial section a large fraction of all kernel work, bounding
any parallel speedup (Amdahl), and past the warm budget it is
abandoned half-done with the caches left unfrozen.  The engine
instead subdivides the giant block by refined sub-key
(``CertainKeyBlocking.split_partition``), dispatches the work units
largest-first through the pool's shared queue, and skips parent-side
warming entirely — its serialized section is the subdivision itself,
milliseconds instead of seconds.

Three bench families:

* ``skewed_fanout`` — end-to-end wall clock at ``n_jobs=2`` on the
  skewed workload.  On a single-CPU host wall clock equals total work;
  read it together with the ``serial_section`` pair below.
* ``skew_serial_section`` — the pre-fork serialized section on the
  same skewed plan: a whole-plan ``prewarm_plan`` vs the work-unit
  subdivision the engine does instead.  This is the
  hardware-independent witness of the skew win: the section a second
  worker cannot help with shrinks by ~two orders of magnitude.
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
from repro.matching.executor import (
    ExecutionEngine,
    ExecutionSettings,
    prewarm_plan,
)
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
    and every value is distinct — the adversarial case for cache
    pre-warming, since no table entry is ever reused across pairs.
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


def test_bench_scheduler_skewed_fanout(benchmark, skewed_relation):
    """The skewed workload at n_jobs=2: split units, no parent warm."""
    expected = plan_candidates(
        CertainKeyBlocking(BLOCK_KEY), skewed_relation
    ).total_pairs

    def run():
        return _detector().detect(
            skewed_relation,
            n_jobs=2,
            keep_derivations=False,
        )

    result = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert len(result.decisions) == expected


def test_bench_scheduler_serial_section_partitioned(
    benchmark, skewed_relation
):
    """The pre-fork serial section a whole-plan warm would cost.

    Everything measured here would happen in the parent while the pool
    sits idle — the giant block's candidate pairs dominate, so
    this section scales with the square of the skew and would cap any
    parallel speedup.
    """
    plan = plan_candidates(CertainKeyBlocking(BLOCK_KEY), skewed_relation)

    def run():
        return prewarm_plan(default_matcher(), skewed_relation, plan)

    warmed, _ = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert warmed > 0


def test_bench_scheduler_serial_section_stealing(
    benchmark, skewed_relation
):
    """The engine's pre-fork serial section: sub-key subdivision.

    The direct counterpart of the whole-plan warm above — the only work
    a pooled run over the skewed plan does before workers start.  The
    recorded gap between the two serial sections is the
    hardware-independent skew win: it is the part of the run
    ``n_jobs=2`` cannot halve.
    """
    reducer = CertainKeyBlocking(BLOCK_KEY)
    plan = plan_candidates(reducer, skewed_relation)
    total = plan.total_pairs

    def run():
        engine = ExecutionEngine(
            _detector().procedure,
            ExecutionSettings(n_jobs=2),
            splitter=reducer,
        )
        unit_pairs, _ = engine._work_units(
            skewed_relation, plan
        )
        return unit_pairs

    unit_pairs = benchmark(run)
    assert sum(len(pairs) for pairs in unit_pairs) == total
    assert len(unit_pairs) > len(plan.partitions)  # the giant block split


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
