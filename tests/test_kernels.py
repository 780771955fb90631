"""Property tests pinning the fast kernels to the reference implementations.

The banded, early-exit edit distances in :mod:`repro.similarity.kernels`
must be *exactly* equivalent to the reference dynamic programs of
:mod:`repro.similarity.edit` — below a cutoff they return the same
integer, above it the documented sentinel ``max_distance + 1``.  The
memoization layers (:class:`SimilarityCache`, cached attribute matchers)
must never change a result, only skip recomputation, so cached and
uncached matchers are required to produce bitwise-identical comparison
matrices.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.comparison import (
    AttributeMatcher,
    ComparisonMatrix,
    ComparisonVector,
)
from repro.matching.decision.base import MatchStatus
from repro.matching.derivation import (
    DerivationInput,
    ExpectedMatchingResult,
    ExpectedSimilarity,
    MatchingWeight,
    MatchProbability,
    MaximumSimilarity,
    MostProbableWorldSimilarity,
    normalized_weights,
)
from repro.pdb.values import ProbabilisticValue
from repro.pdb.xtuples import XTuple
from repro.similarity.edit import (
    damerau_levenshtein_distance,
    levenshtein_distance,
)
from repro.similarity.jaro import JARO_WINKLER
from repro.similarity.kernels import (
    FAST_DAMERAU_LEVENSHTEIN,
    FAST_LEVENSHTEIN,
    SimilarityCache,
    banded_damerau_levenshtein,
    banded_damerau_levenshtein_similarity,
    banded_levenshtein,
    banded_levenshtein_similarity,
)
from repro.similarity.edit import (
    damerau_levenshtein_similarity,
    levenshtein_similarity,
)
from repro.similarity.uncertain import UncertainValueComparator

short_text = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    max_size=14,
)

cutoffs = st.integers(min_value=0, max_value=16)


# ----------------------------------------------------------------------
# Banded kernels vs reference DP
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(short_text, short_text)
def test_banded_levenshtein_exact_without_cutoff(left, right):
    assert banded_levenshtein(left, right) == levenshtein_distance(
        left, right
    )


@settings(max_examples=300, deadline=None)
@given(short_text, short_text, cutoffs)
def test_banded_levenshtein_respects_cutoff(left, right, cutoff):
    reference = levenshtein_distance(left, right)
    result = banded_levenshtein(left, right, cutoff)
    if reference <= cutoff:
        assert result == reference
    else:
        assert result == cutoff + 1


@settings(max_examples=300, deadline=None)
@given(short_text, short_text)
def test_banded_damerau_exact_without_cutoff(left, right):
    assert banded_damerau_levenshtein(
        left, right
    ) == damerau_levenshtein_distance(left, right)


@settings(max_examples=300, deadline=None)
@given(short_text, short_text, cutoffs)
def test_banded_damerau_respects_cutoff(left, right, cutoff):
    reference = damerau_levenshtein_distance(left, right)
    result = banded_damerau_levenshtein(left, right, cutoff)
    if reference <= cutoff:
        assert result == reference
    else:
        assert result == cutoff + 1


@settings(max_examples=200, deadline=None)
@given(short_text, short_text)
def test_fast_similarities_match_reference(left, right):
    """The full-precision kernels equal the reference similarities."""
    assert banded_levenshtein_similarity(left, right) == pytest.approx(
        levenshtein_similarity(left, right), abs=0
    )
    assert banded_damerau_levenshtein_similarity(
        left, right
    ) == pytest.approx(damerau_levenshtein_similarity(left, right), abs=0)


@settings(max_examples=200, deadline=None)
@given(short_text, short_text, st.floats(min_value=0.0, max_value=1.0))
def test_similarity_floor_is_sound(left, right, floor):
    """With a floor, results are exact above it and 0 below it."""
    reference = levenshtein_similarity(left, right)
    result = banded_levenshtein_similarity(
        left, right, min_similarity=floor
    )
    if reference >= floor:
        assert result == reference
    else:
        assert result == 0.0 or result == reference


def test_banded_length_difference_pruning():
    """The length gap alone answers hopeless comparisons."""
    assert banded_levenshtein("a" * 30, "a", 5) == 6
    assert banded_damerau_levenshtein("a" * 30, "a", 5) == 6


def test_banded_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        banded_levenshtein("ab", "cd", -1)
    with pytest.raises(ValueError):
        banded_damerau_levenshtein("ab", "cd", -1)


def test_named_fast_comparators_registered():
    assert FAST_LEVENSHTEIN("kitten", "sitting") == levenshtein_similarity(
        "kitten", "sitting"
    )
    assert FAST_DAMERAU_LEVENSHTEIN("ab", "ba") == (
        damerau_levenshtein_similarity("ab", "ba")
    )


# ----------------------------------------------------------------------
# SimilarityCache
# ----------------------------------------------------------------------


def test_cache_is_transparent_and_symmetric():
    calls = []

    def base(left, right):
        calls.append((left, right))
        return levenshtein_similarity(left, right)

    cache = SimilarityCache(base)
    first = cache("anna", "anne")
    second = cache("anne", "anna")  # unordered key: no recomputation
    third = cache("anna", "anne")
    assert first == second == third
    assert len(calls) == 1
    assert cache.hits == 2 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(2 / 3)


def test_cache_equal_operands_short_circuit():
    cache = SimilarityCache(lambda a, b: 0.5)
    assert cache("same", "same") == 1.0
    assert len(cache) == 0  # never touched the store


def test_empty_shared_cache_still_enables_caching():
    """A freshly created (empty, falsy) cache must not be ignored."""
    shared = SimilarityCache(JARO_WINKLER)
    left = UncertainValueComparator(JARO_WINKLER, cache=shared)
    right = UncertainValueComparator(JARO_WINKLER, cache=shared)
    assert left.cache is shared and right.cache is shared
    left("anna", "anne")
    right("anne", "anna")
    assert shared.misses == 1 and shared.hits == 1


def test_cache_cross_type_equality_not_shortcut():
    """``1 == 1.0`` but their string forms differ — no reflexive 1.0."""
    assert JARO_WINKLER(1, 1.0) != 1.0
    cache = SimilarityCache(JARO_WINKLER)
    assert cache(1, 1.0) == JARO_WINKLER(1, 1.0)
    # And equal-but-differently-typed pairs don't alias cache entries.
    assert cache(1, 2) == JARO_WINKLER(1, 2)
    assert cache(1.0, 2.0) == JARO_WINKLER(1.0, 2.0)


def test_compare_rows_still_validates_comparator_range():
    """The trusted hot path keeps the loud out-of-range error."""
    from repro.pdb.tuples import ProbabilisticTuple

    matcher = AttributeMatcher({"name": lambda a, b: 1.5})
    left = ProbabilisticTuple("t1", {"name": "anna"})
    right = ProbabilisticTuple("t2", {"name": "anne"})
    with pytest.raises(ValueError, match="outside"):
        matcher.compare_rows(left, right)
    # Float round-off above 1 is clamped, not rejected.
    forgiving = AttributeMatcher({"name": lambda a, b: 1.0 + 1e-13})
    assert matcher is not forgiving
    assert forgiving.compare_rows(left, right).values == (1.0,)


def test_cache_overflow_clears_store():
    cache = SimilarityCache(levenshtein_similarity, max_entries=2)
    cache("a", "b")
    cache("a", "c")
    cache("a", "d")  # exceeds capacity: store cleared, then repopulated
    assert len(cache) == 1


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(short_text, short_text), max_size=30))
def test_cached_comparator_bitwise_equals_uncached(pairs):
    cache = SimilarityCache(JARO_WINKLER)
    for left, right in pairs:
        assert cache(left, right) == JARO_WINKLER(left, right)


# ----------------------------------------------------------------------
# Cached vs uncached attribute matching (bitwise identity)
# ----------------------------------------------------------------------

uncertain_value = st.one_of(
    short_text,
    st.none(),
    st.dictionaries(
        short_text, st.floats(min_value=0.05, max_value=0.3), min_size=1, max_size=3
    ),
)


def _xtuple(tuple_id: str, rows) -> XTuple:
    return XTuple.build(tuple_id, [(values, prob) for values, prob in rows])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(uncertain_value, uncertain_value), min_size=1, max_size=3
    ),
    st.lists(
        st.tuples(uncertain_value, uncertain_value), min_size=1, max_size=3
    ),
)
def test_cached_matcher_bitwise_identical_matrices(left_rows, right_rows):
    """Cached and uncached matchers agree bit for bit on whole matrices."""
    share_left = 1.0 / len(left_rows)
    share_right = 1.0 / len(right_rows)
    left = _xtuple(
        "t1",
        [
            ({"name": name, "job": job}, share_left)
            for name, job in left_rows
        ],
    )
    right = _xtuple(
        "t2",
        [
            ({"name": name, "job": job}, share_right)
            for name, job in right_rows
        ],
    )
    plain = AttributeMatcher(
        {"name": JARO_WINKLER, "job": JARO_WINKLER}
    )
    cached = AttributeMatcher(
        {"name": JARO_WINKLER, "job": JARO_WINKLER}, cache=True
    )
    expected = plain.compare_xtuples(left, right)
    # Run the cached matcher twice: the second pass answers from the
    # memo and must still be bitwise identical.
    for _ in range(2):
        actual = cached.compare_xtuples(left, right)
        assert actual.shape == expected.shape
        for i, j, vector in expected.cells():
            assert actual.vector(i, j).values == vector.values
            assert actual.vector(i, j).attributes == vector.attributes


def test_matcher_cache_stats_exposed():
    matcher = AttributeMatcher({"name": JARO_WINKLER}, cache=True)
    stats = matcher.cache_stats()
    assert set(stats) == {"name"}
    matcher.compare_values("name", "anna", "anne")
    matcher.compare_values("name", "anne", "anna")
    assert stats["name"].hits == 1 and stats["name"].misses == 1
    assert AttributeMatcher({"name": JARO_WINKLER}).cache_stats() == {}


# ----------------------------------------------------------------------
# Certain-value fast path
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(short_text, short_text)
def test_certain_fast_path_matches_eq5(left, right):
    comparator = UncertainValueComparator(JARO_WINKLER)
    via_plain = comparator(left, right)
    via_values = comparator(
        ProbabilisticValue.certain(left), ProbabilisticValue.certain(right)
    )
    # The reference result through the full Equation-5 double loop.
    reference = ProbabilisticValue.certain(left).expected_similarity(
        ProbabilisticValue.certain(right), JARO_WINKLER
    )
    assert via_plain == reference
    assert via_values == reference


def test_fast_path_null_semantics():
    comparator = UncertainValueComparator(JARO_WINKLER)
    assert comparator(None, None) == 1.0
    assert comparator(None, "anna") == 0.0
    assert comparator("anna", None) == 0.0


# ----------------------------------------------------------------------
# Trusted constructors and the name → index map
# ----------------------------------------------------------------------


def test_trusted_vector_equals_validated():
    validated = ComparisonVector(("name", "job"), (0.25, 1.0))
    trusted = ComparisonVector.trusted(("name", "job"), (0.25, 1.0))
    assert trusted == validated
    assert hash(trusted) == hash(validated)
    assert trusted.similarity("job") == 1.0
    assert trusted.similarity("name") == 0.25
    with pytest.raises(KeyError):
        trusted.similarity("city")


def test_vector_index_map_is_lazy_and_correct():
    vector = ComparisonVector(("a", "b", "c"), (0.1, 0.2, 0.3))
    assert vector._index is None
    assert vector.similarity("c") == pytest.approx(0.3)
    assert vector._index == {"a": 0, "b": 1, "c": 2}
    # Second lookup reuses the map.
    assert vector.similarity("a") == pytest.approx(0.1)


def test_matrix_weights_precomputed_and_consistent():
    vector = ComparisonVector(("name",), (0.5,))
    matrix = ComparisonMatrix(
        [[vector, vector], [vector, vector]], [0.3, 0.3], [0.2, 0.6]
    )
    reference = normalized_weights([0.3, 0.3], [0.2, 0.6])
    assert matrix.weights == reference
    for i in range(2):
        for j in range(2):
            assert matrix.conditional_weight(i, j) == reference[i][j]


# ----------------------------------------------------------------------
# Vectorized derivation functions: array path ≡ scalar path
# ----------------------------------------------------------------------


def _random_input(rng, k, l, with_statuses):
    similarities = tuple(
        tuple(rng.random() for _ in range(l)) for _ in range(k)
    )
    raw = [[rng.random() + 0.05 for _ in range(l)] for _ in range(k)]
    total = sum(sum(row) for row in raw)
    weights = tuple(tuple(w / total for w in row) for row in raw)
    statuses = None
    if with_statuses:
        choices = (MatchStatus.MATCH, MatchStatus.POSSIBLE, MatchStatus.UNMATCH)
        statuses = tuple(
            tuple(rng.choice(choices) for _ in range(l)) for _ in range(k)
        )
    return DerivationInput(
        similarities=similarities, statuses=statuses, weights=weights
    )


@pytest.mark.parametrize(
    "derivation",
    [
        ExpectedSimilarity(),
        MostProbableWorldSimilarity(),
        MaximumSimilarity(),
        MatchingWeight(),
        MatchProbability(),
        ExpectedMatchingResult(),
    ],
    ids=repr,
)
@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (12, 12)])
def test_derivations_agree_across_scalar_and_array_paths(derivation, shape):
    """12×12 exceeds the vectorization threshold; 1×1 and 3×4 stay scalar.

    Both code paths must produce the same ϑ value (up to float summation
    order) on the same derivation input.
    """
    import random

    rng = random.Random(20240729 + shape[0])
    data = _random_input(
        rng, *shape, with_statuses=derivation.requires_statuses
    )
    result = derivation(data)
    # Reference: the naive cells() loop the seed implementation used.
    if isinstance(derivation, ExpectedSimilarity):
        reference = sum(
            w * s for _, _, s, _, w in data.cells()
        )
    elif isinstance(derivation, MaximumSimilarity):
        reference = max(s for _, _, s, _, _ in data.cells())
    elif isinstance(derivation, MostProbableWorldSimilarity):
        best_w, reference = -1.0, 0.0
        for _, _, s, _, w in data.cells():
            if w > best_w:
                best_w, reference = w, s
    elif isinstance(derivation, MatchProbability):
        reference = sum(
            w
            for _, _, _, status, w in data.cells()
            if status is MatchStatus.MATCH
        )
    elif isinstance(derivation, ExpectedMatchingResult):
        reference = sum(
            w * status.numeric for _, _, _, status, w in data.cells()
        )
    else:
        p_m = sum(
            w
            for _, _, _, status, w in data.cells()
            if status is MatchStatus.MATCH
        )
        p_u = sum(
            w
            for _, _, _, status, w in data.cells()
            if status is MatchStatus.UNMATCH
        )
        if p_u > 0:
            reference = p_m / p_u
        else:
            reference = float("inf") if p_m > 0 else 1.0
    assert result == pytest.approx(reference, rel=1e-12)


def test_derivation_input_arrays_match_tuples():
    data = DerivationInput(
        similarities=((0.1, 0.9), (0.4, 0.6)),
        statuses=(
            (MatchStatus.MATCH, MatchStatus.UNMATCH),
            (MatchStatus.POSSIBLE, MatchStatus.MATCH),
        ),
        weights=((0.25, 0.25), (0.25, 0.25)),
    )
    assert data.similarity_array.tolist() == [[0.1, 0.9], [0.4, 0.6]]
    assert data.weight_array.tolist() == [[0.25] * 2, [0.25] * 2]
    assert data.status_code_array.tolist() == [[2, 0], [1, 2]]
    # Cached on first access.
    assert data.similarity_array is data.similarity_array


