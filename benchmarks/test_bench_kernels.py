"""Bench: the performance core — banded kernels, caches, trusted paths.

Times the fast comparison kernels against the reference dynamic
programs, and cached against uncached attribute matching, so the speedup
claims of the kernel layer are tracked by the benchmark harness:

* banded + early-exit Levenshtein/Damerau vs the full reference DP at a
  realistic duplicate-detection cutoff;
* the Myers bit-parallel kernels (the ``"fast"`` kernel) vs both of
  the above, with bitwise-agreement sanity asserts — the CI smoke runs
  this module, so any divergence from the ``"python"`` reference fails
  the build;
* the per-pair similarities a cache's batch of misses costs on each
  kernel, over one partition vocabulary crossed (``warm_batch``): the
  edit kernels have no batch scorer, so these rows are the miss path;
* memoized (``SimilarityCache``) vs uncached Equation-5 matching on the
  same pair workload;
* comparison-matrix construction with the precomputed weight matrix;
* the scalar/numpy crossovers of the batched decide loop at 2, 37 and
  300 pairs: per-pair vs vectorized Jaro–Winkler on cache misses (the
  rows ``BATCH_SCORE_MIN_PAIRS`` is set from) and per-pair ``decide``
  vs ``decide_batch`` on warm caches (the rows ``BATCH_MIN_CELLS`` is
  set from).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.datagen import DatasetConfig, generate_dataset
from repro.datagen.corpus import FIRST_NAMES, JOBS
from repro.matching.comparison import AttributeMatcher
from repro.similarity.backends.bitparallel import (
    bitparallel_damerau_levenshtein,
    bitparallel_levenshtein,
    bitparallel_levenshtein_similarity,
)
from repro.similarity.edit import (
    damerau_levenshtein_distance,
    levenshtein_distance,
)
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector
from repro.similarity.jaro import JARO_WINKLER, BoundedJaroWinkler
from repro.similarity.kernels import (
    banded_damerau_levenshtein,
    banded_levenshtein,
    banded_levenshtein_similarity,
)
from repro.similarity.uncertain import (
    PatternPolicy,
    UncertainValueComparator,
)

#: Cutoff used by the banded benchmarks: at similarity threshold 0.75 on
#: ~12-char strings, distances above 3 can never classify as a match.
CUTOFF = 3


def _word_pairs(count: int, seed: int = 17) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(6, 14)))
        for _ in range(count)
    ]
    # Half the pairs are corrupted near-duplicates (the interesting
    # case for early exit), half are unrelated strings.
    pairs = []
    for index, word in enumerate(words):
        if index % 2 == 0:
            corrupted = list(word)
            corrupted[rng.randrange(len(corrupted))] = rng.choice(alphabet)
            pairs.append((word, "".join(corrupted)))
        else:
            pairs.append((word, words[(index + 7) % len(words)]))
    return pairs


@pytest.fixture(scope="module")
def word_pairs():
    return _word_pairs(400)


def _codes(pairs):
    """*pairs* as ``(elements, lefts, rights)``, the operands of the
    code-keyed Jaro–Winkler batch scorer: each distinct string listed
    once, as a similarity cache codes its misses."""
    elements = list(dict.fromkeys(word for pair in pairs for word in pair))
    code = {word: index for index, word in enumerate(elements)}
    flat = np.array(
        [code[word] for pair in pairs for word in pair], dtype=np.int64
    )
    return elements, flat[0::2], flat[1::2]


def test_bench_reference_levenshtein(benchmark, word_pairs):
    """Baseline: the reference two-row DP over 400 pairs."""

    def run():
        return sum(
            levenshtein_distance(a, b) for a, b in word_pairs
        )

    total = benchmark(run)
    assert total > 0


def test_bench_banded_levenshtein(benchmark, word_pairs):
    """Banded kernel with cutoff: must beat the reference DP."""

    def run():
        return sum(
            banded_levenshtein(a, b, CUTOFF) for a, b in word_pairs
        )

    total = benchmark(run)
    assert total > 0


def test_bench_reference_damerau(benchmark, word_pairs):
    """Baseline: the full-matrix reference Damerau DP."""

    def run():
        return sum(
            damerau_levenshtein_distance(a, b) for a, b in word_pairs
        )

    total = benchmark(run)
    assert total > 0


def test_bench_banded_damerau(benchmark, word_pairs):
    """Banded Damerau kernel with cutoff."""

    def run():
        return sum(
            banded_damerau_levenshtein(a, b, CUTOFF) for a, b in word_pairs
        )

    total = benchmark(run)
    assert total > 0


def test_bench_bitparallel_levenshtein(benchmark, word_pairs):
    """Myers bit-parallel kernel with the same cutoff."""

    def run():
        return sum(
            bitparallel_levenshtein(a, b, max_distance=CUTOFF)
            for a, b in word_pairs
        )

    total = benchmark(run)
    assert total > 0


def test_bench_bitparallel_damerau(benchmark, word_pairs):
    """Bit-parallel Damerau (Hyyrö transposition term) with cutoff."""

    def run():
        return sum(
            bitparallel_damerau_levenshtein(a, b, max_distance=CUTOFF)
            for a, b in word_pairs
        )

    total = benchmark(run)
    assert total > 0


@pytest.fixture(scope="module")
def warm_batch():
    """A batch-shaped workload: one partition vocabulary crossed.

    A cold cache's first chunk over one block hands the miss path a
    batch like this — a few thousand pairs drawn from a modest
    vocabulary.
    """
    rng = random.Random(23)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    words = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(6, 14)))
        for _ in range(60)
    ]
    # Half the vocabulary is one-edit corruptions — the cross product
    # then mixes near-duplicates with unrelated pairs like a real block.
    for word in list(words):
        corrupted = list(word)
        corrupted[rng.randrange(len(corrupted))] = rng.choice(alphabet)
        words.append("".join(corrupted))
    return [
        (words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    ]


def test_bench_perpair_similarity_python(benchmark, warm_batch):
    """The ``"python"`` kernel's miss path: per-pair banded
    similarities at a 0.75 floor."""

    def run():
        return sum(
            banded_levenshtein_similarity(a, b, min_similarity=0.75)
            for a, b in warm_batch
        )

    total = benchmark(run)
    assert total > 0


def test_bench_perpair_similarity_fast(benchmark, warm_batch):
    """The ``"fast"`` kernel's miss path: per-pair bit-parallel
    similarities at the same floor."""

    def run():
        return sum(
            bitparallel_levenshtein_similarity(a, b, min_similarity=0.75)
            for a, b in warm_batch
        )

    total = benchmark(run)
    assert total > 0


def test_banded_equals_reference_on_bench_data(word_pairs):
    """Sanity: within the cutoff the kernels are exact on the bench data."""
    for a, b in word_pairs:
        reference = levenshtein_distance(a, b)
        banded = banded_levenshtein(a, b, CUTOFF)
        assert banded == (reference if reference <= CUTOFF else CUTOFF + 1)


def test_backends_agree_bitwise_on_bench_data(word_pairs):
    """The CI divergence gate: the fast kernel pins to the reference.

    Runs inside the ``--quick`` smoke (this module matches the
    ``kernels`` selector), so a fast kernel drifting from the
    ``"python"`` DPs fails the benchmark job, not just the unit suite.
    """
    for a, b in word_pairs:
        reference = levenshtein_distance(a, b)
        capped = bitparallel_levenshtein(a, b, max_distance=CUTOFF)
        if reference <= CUTOFF:
            assert capped == reference
        else:
            assert capped > CUTOFF
        assert bitparallel_levenshtein(a, b) == reference
        assert bitparallel_damerau_levenshtein(a, b) == (
            damerau_levenshtein_distance(a, b)
        )
        assert bitparallel_levenshtein_similarity(
            a, b, min_similarity=0.75
        ) == banded_levenshtein_similarity(a, b, min_similarity=0.75)


def _matcher(cache: bool) -> AttributeMatcher:
    return AttributeMatcher(
        {
            "name": UncertainValueComparator(JARO_WINKLER, cache=cache),
            "job": UncertainValueComparator(
                JARO_WINKLER,
                pattern_policy=PatternPolicy.EXPAND,
                pattern_lexicon=JOBS,
                cache=cache,
            ),
        }
    )


@pytest.fixture(scope="module")
def matching_workload():
    dataset = generate_dataset(
        DatasetConfig(entity_count=60, seed=101), flat=True
    )
    relation = dataset.relation
    ids = relation.tuple_ids
    pairs = [
        (relation.get(ids[i]).alternatives[0], relation.get(ids[j]).alternatives[0])
        for i in range(0, min(50, len(ids)))
        for j in range(i + 1, min(i + 11, len(ids)))
    ][:500]
    return pairs


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_bench_matching_cache(benchmark, matching_workload, cached):
    """Equation-5 matching over 500 row pairs, with and without memo."""
    matcher = _matcher(cached)

    def run():
        total = 0.0
        for left, right in matching_workload:
            total += matcher.compare_rows(left, right)[0]
        return total

    total = benchmark(run)
    assert total >= 0.0


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_bench_matching_cache_batch(benchmark, matching_workload, cached):
    """The same 500 row pairs, encoded, through one ``compare_batch`` call.

    The batched counterpart of :func:`test_bench_matching_cache`: the
    code-keyed cache probe and Equation-5 memo.  Its vectors must be
    bitwise what ``compare_rows`` returns, with the same cache hit and
    miss counts, on a cold round and on a memo-warm one.
    """
    rows = list(
        {id(row): row for pair in matching_workload for row in pair}.values()
    )
    position = {id(row): index for index, row in enumerate(rows)}
    lefts = np.array([position[id(left)] for left, _ in matching_workload])
    rights = np.array([position[id(right)] for _, right in matching_workload])
    attributes = rows[0].attributes
    matcher = _matcher(cached)

    def compare(matcher):
        codes = [
            matcher.comparator_for(attribute).encode(
                [row.value(attribute) for row in rows]
            )
            for attribute in attributes
        ]
        return matcher.compare_batch(attributes, codes, lefts, rights)

    vectors = benchmark(lambda: compare(matcher))
    assert vectors.shape == (len(matching_workload), len(attributes))

    scalar, batched = _matcher(cached), _matcher(cached)
    for _round in range(2):
        expected = [
            [value.hex() for value in scalar.compare_rows(left, right).values]
            for left, right in matching_workload
        ]
        got = compare(batched)
        assert [[value.hex() for value in row] for row in got.tolist()] == (
            expected
        )
        assert {
            attribute: (cache.hits, cache.misses)
            for attribute, cache in batched.cache_stats().items()
        } == {
            attribute: (cache.hits, cache.misses)
            for attribute, cache in scalar.cache_stats().items()
        }


def test_cached_equals_uncached_on_bench_data(matching_workload):
    """Sanity: the memo never changes a comparison result."""
    plain = _matcher(False)
    cached = _matcher(True)
    for left, right in matching_workload:
        assert (
            cached.compare_rows(left, right).values
            == plain.compare_rows(left, right).values
        )


def test_bench_matrix_construction(benchmark, matching_workload):
    """x-tuple comparison matrices with precomputed weight matrices."""
    matcher = _matcher(True)
    dataset = generate_dataset(DatasetConfig(entity_count=40, seed=103))
    relation = dataset.relation
    ids = relation.tuple_ids[:40]
    xtuples = [relation.get(tid) for tid in ids]
    pairs = [
        (xtuples[i], xtuples[j])
        for i in range(len(xtuples))
        for j in range(i + 1, min(i + 6, len(xtuples)))
    ]

    def run():
        checksum = 0.0
        for left, right in pairs:
            matrix = matcher.compare_xtuples(left, right)
            checksum += matrix.conditional_weight(0, 0)
        return checksum

    checksum = benchmark(run)
    assert checksum > 0.0


# ----------------------------------------------------------------------
# Scalar/numpy crossovers of the batched decide loop
# ----------------------------------------------------------------------

#: Batch sizes of the crossover rows: a near-empty batch, the size of a
#: typical incremental-refresh partition, and a full-run chunk's share.
CROSSOVER_SIZES = (2, 37, 300)


@pytest.mark.parametrize("size", CROSSOVER_SIZES)
@pytest.mark.parametrize("path", ("scalar", "numpy"))
def test_bench_jaro_winkler_crossover(benchmark, path, size):
    """Distinct name/job pairs scored per pair or in one numpy batch
    from their codes (the cache's miss path)."""
    rng = random.Random(size)
    pairs = [
        (rng.choice(JOBS), rng.choice(JOBS) + rng.choice("aeiou"))
        for _ in range(size)
    ]
    comparator = BoundedJaroWinkler()
    codes = _codes(pairs)

    def scalar():
        return [comparator(left, right) for left, right in pairs]

    scores = benchmark(
        scalar
        if path == "scalar"
        else lambda: comparator.batch_code_similarities(*codes)
    )
    assert list(scores) == scalar()


#: Distinct pairs in the miss-batch row: about one batch's worth of
#: name and job misses of a seed-30 ``full_flat`` detection at the
#: default chunk size.
MISS_BATCH_PAIRS = 2400


def _miss_batch(seed: int = 30) -> list[tuple[str, str]]:
    """Distinct name/name and job/job pairs, about a third of them
    against a one-letter typo of a vocabulary word."""
    rng = random.Random(seed)
    words = []
    for vocabulary in (FIRST_NAMES, JOBS):
        typos = []
        for word in vocabulary:
            at = rng.randrange(len(word))
            typos.append(word[:at] + rng.choice("aeinrst") + word[at + 1 :])
        words.append((list(vocabulary), list(vocabulary) + typos))
    pairs = set()
    while len(pairs) < MISS_BATCH_PAIRS:
        lefts, rights = rng.choice(words)
        left, right = rng.choice(lefts), rng.choice(rights)
        if left != right and (right, left) not in pairs:
            pairs.add((left, right))
    return sorted(pairs)


def test_bench_jaro_winkler_miss_batch(benchmark):
    """A full-run batch of distinct Jaro–Winkler cache misses scored in
    one call from codes built beforehand (the scan alone)."""
    pairs = _miss_batch()
    comparator = BoundedJaroWinkler()
    codes = _codes(pairs)
    scores = benchmark(lambda: comparator.batch_code_similarities(*codes))
    assert scores.tolist() == [
        comparator(left, right) for left, right in pairs
    ]


@pytest.fixture(scope="module")
def decide_pairs():
    relation = generate_dataset(
        DatasetConfig(entity_count=60, seed=101), flat=True
    ).relation
    tuples = list(relation)
    return [
        (left, right)
        for index, left in enumerate(tuples)
        for right in tuples[index + 1 :]
    ]


@pytest.mark.parametrize("size", CROSSOVER_SIZES)
@pytest.mark.parametrize("path", ("scalar", "batch"))
def test_bench_decide_crossover(benchmark, decide_pairs, path, size):
    """Warm-cache decisions per pair or in one ``decide_batch`` call
    (forced onto the array path even below ``BATCH_MIN_CELLS``)."""
    procedure = DuplicateDetector(default_matcher(), weighted_model()).procedure
    pairs = decide_pairs[:size]
    lefts = [left for left, _ in pairs]
    rights = [right for _, right in pairs]
    expected = [
        procedure.decide(left, right, keep_derivations=False)
        for left, right in pairs
    ]
    if path == "scalar":
        decided = benchmark(
            lambda: [
                procedure.decide(left, right, keep_derivations=False)
                for left, right in pairs
            ]
        )
    else:
        import repro.matching.engine as engine

        floor = engine.BATCH_MIN_CELLS
        engine.BATCH_MIN_CELLS = 0
        try:
            decided = benchmark(
                lambda: procedure.decide_batch(lefts, rights, False)
            )
        finally:
            engine.BATCH_MIN_CELLS = floor
    assert decided == expected
