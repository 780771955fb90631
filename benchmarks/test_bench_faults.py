"""Bench: what fault tolerance costs when nothing goes wrong.

The fault layer's contract is that it is pay-as-you-go: every run is
supervised, but a run that never faults retries nothing and a spilled
store keeps its single-pass reads, so clean runs must not slow down.
These benches put numbers on that claim, on the same adversarial
skewed-block workload as the scheduler benches (one giant block
holding ~50% of all candidate pairs):

* ``clean_path`` — end-to-end skewed detect under a retry budget and a
  generous timeout that never fires: the price of deadline-checked
  chunks when nothing goes wrong.
* ``recovery`` — the same supervised run with one injected crash on
  the first attempt: the marginal price of an actual retry (the
  victim's packed task replayed per partition, one partition decided
  twice) on top of the clean path.
* ``checksum_stream`` — streaming a spilled copy of the workload
  through a fresh store, so every file's CRC is verified on its first
  map: the out-of-core read path with its integrity check included.
"""

from __future__ import annotations

import os

import pytest

from test_bench_scheduler import BLOCK_KEY, _detector, _skewed_relation

from repro.matching.executor import RetryPolicy
from repro.pdb.io import open_store
from repro.reduction import CertainKeyBlocking, plan_candidates
from repro.testing import FaultInjector, installed

ROUNDS = 1 if os.environ.get("BENCH_QUICK") else 3

#: Never fires on a healthy attempt — clean-path cost only.
SUPERVISED = RetryPolicy(max_attempts=2, timeout=60.0)


@pytest.fixture(scope="module")
def skewed_relation():
    return _skewed_relation()


@pytest.fixture(scope="module")
def expected_pairs(skewed_relation):
    return plan_candidates(
        CertainKeyBlocking(BLOCK_KEY), skewed_relation
    ).total_pairs


def test_bench_faults_clean_path(benchmark, skewed_relation, expected_pairs):
    """Skewed detect under a policy that never fires."""

    def run():
        detector = _detector()
        result = detector.detect(
            skewed_relation,
            keep_derivations=False,
            retry=SUPERVISED,
        )
        return detector, result

    detector, result = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert len(result.decisions) == expected_pairs
    report = detector.last_report
    # Clean path: supervision engaged, but nothing ever faulted.
    assert report.worker_crashes == 0
    assert report.worker_timeouts == 0
    assert report.retried_dispatches == 0
    assert not report.failures


def test_bench_faults_recovery(
    benchmark, skewed_relation, expected_pairs
):
    """Clean path plus one injected crash: the price of one retry."""
    detector = _detector()
    hook = FaultInjector(7).partition_crash(detector.plan(skewed_relation))

    def run():
        fresh = _detector()
        with installed(hook):
            result = fresh.detect(
                skewed_relation,
                keep_derivations=False,
                retry=SUPERVISED,
            )
        return fresh, result

    fresh, result = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert len(result.decisions) == expected_pairs
    assert fresh.last_report.retried_dispatches >= 1
    assert fresh.last_report.recovered


@pytest.mark.parametrize("checksums", ["verified"])
def test_bench_faults_checksum_stream(
    benchmark, tmp_path_factory, skewed_relation, checksums
):
    """Full streaming read of a spilled store, every file CRC-checked."""
    path = str(tmp_path_factory.mktemp("faults") / f"store-{checksums}")
    skewed_relation.spill(path, segment_size=64).close()

    def run():
        # A fresh store each round: verified files are remembered per
        # instance, so reusing one would measure the check only once.
        store = open_store(path)
        count = sum(1 for _ in store)
        store.close()
        return count

    count = benchmark.pedantic(run, iterations=1, rounds=ROUNDS)
    assert count == len(skewed_relation)
