"""The batched decide path, layer by layer, against its scalar oracle.

Every array method must return bitwise what its per-pair counterpart
returns: the numpy Jaro–Winkler scorer, the cache's batched lookups
(counters included), Equation 5 over a batch, the combination functions,
the classifiers and Equation 6 — and ``decide_batch`` as a whole against
``decide``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.corpus import JOBS
from repro.matching.combination import Average, Maximum, Minimum, WeightedSum
from repro.matching.comparison import AttributeMatcher, ComparisonVector
from repro.matching.decision.base import (
    CombinedDecisionModel,
    MatchStatus,
    ThresholdClassifier,
)
from repro.matching.decision.calibration import ForcedUnsureClassifier
from repro.matching.derivation import (
    DerivationBatch,
    DerivationInput,
    ExpectedSimilarity,
)
from repro.matching.engine import (
    BATCH_MIN_CELLS,
    CodedView,
    XTupleDecisionProcedure,
)
from repro.pdb.values import NULL, PatternValue, ProbabilisticValue
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.similarity.jaro import (
    BoundedJaroWinkler,
    jaro_winkler_similarity,
)
from repro.similarity.kernels import (
    BATCH_SCORE_MIN_PAIRS,
    PAIR_BASE,
    FAST_LEVENSHTEIN,
    SimilarityCache,
    score_codes,
)
from repro.similarity.uncertain import (
    PatternPolicy,
    UncertainValueComparator,
)

# ----------------------------------------------------------------------
# Jaro–Winkler batch scorer
# ----------------------------------------------------------------------

#: ASCII, Latin-1, CJK and an astral-plane character.
ALPHABET = "abcdeéß日😀"
TEXT = st.text(alphabet=ALPHABET, max_size=12)
#: Lengths around the scan's one-mask limit (64 characters) and well
#: past it, where pairs are scored one at a time.
LONG_SIZES = (63, 64, 65, 130)


@st.composite
def jw_pairs(draw):
    """Random, identical, length-1, empty, long-common-prefix, repeated
    character and long (63–130 character) pairs."""
    kind = draw(
        st.sampled_from(
            ("random", "same", "single", "prefix", "repeated", "long")
        )
    )
    if kind == "same":
        text = draw(TEXT)
        return text, text
    if kind == "single":
        return (
            draw(st.text(alphabet=ALPHABET, max_size=1)),
            draw(st.text(alphabet=ALPHABET, max_size=1)),
        )
    if kind == "prefix":
        prefix = draw(st.text(alphabet=ALPHABET, min_size=5, max_size=8))
        return prefix + draw(TEXT), prefix + draw(TEXT)
    if kind == "repeated":
        # Few distinct characters: many candidates in every window.
        few = st.text(alphabet="ab", max_size=12)
        return draw(few), draw(few)
    if kind == "long":
        size = draw(st.sampled_from(LONG_SIZES))
        text = draw(st.text(alphabet=ALPHABET, min_size=size, max_size=size))
        return text, draw(st.sampled_from((text[::-1], text[1:], text[:-1])))
    return draw(TEXT), draw(TEXT)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    pairs=st.lists(jw_pairs(), min_size=1, max_size=80),
    floor=st.sampled_from((0.0, 0.3, 0.75, 0.9, 1.0)),
)
def test_batch_jaro_winkler_is_bitwise_the_scalar_kernel(
    coded, pairs, floor
):
    comparator = BoundedJaroWinkler(min_similarity=floor)
    # The pairs as codes into an element list, repeats included ...
    elements = [element for pair in pairs for element in pair]
    codes = np.arange(len(elements))
    batch = comparator.batch_code_similarities(
        elements, codes[0::2], codes[1::2]
    ).tolist()
    assert len(batch) == len(pairs)
    # ... and into a list of the distinct elements, as a cache codes
    # them: equal operands share one code.
    coded = comparator.batch_code_similarities(*coded(pairs))
    assert [value.hex() for value in coded.tolist()] == [
        value.hex() for value in batch
    ]
    for (left, right), value in zip(pairs, batch):
        assert value.hex() == comparator(left, right).hex()
        exact = jaro_winkler_similarity(left, right)
        if exact >= floor:
            assert value.hex() == exact.hex()
        else:
            assert value == 0.0 or value.hex() == exact.hex()


def _long(size):
    """*size* characters cycling through seven distinct ones."""
    return (ALPHABET[:7] * (size // 7 + 1))[:size]


#: Pairs at the scan's edges, each checked alone and all in one batch.
EDGE_PAIRS = [
    ("", ""),
    ("", "a"),
    ("a", ""),
    ("a", "a"),
    ("a", "b"),
    ("martha", "marhta"),
    ("dwayne", "duane"),
    ("abcdefgh", "abcdefxy"),
    ("日本語テキスト", "日本語テクスト"),
    ("😀x", "x😀"),
    # Codes of different elements whose strings are equal.
    (12, "12"),
    (1, "1"),
    (1.0, "1.0"),
    # Shorter than max_prefix.
    ("ab", "ac"),
    ("abc", "abd"),
    ("ab", "abc"),
    # Repeated characters at the window's edges: the greedy scan takes
    # the first free candidate, not the nearest.
    ("aaaab", "baaaa"),
    ("abababab", "babababa"),
    ("aaaaxbbbb", "bbbbxaaaa"),
    ("abcdabcd", "dcbadcba"),
    ("aaaa", "aaaaaaaa"),
    ("xaaaaaax", "aaxxxxaa"),
    # A lone surrogate, alone and beside the astral character whose
    # surrogate pair it starts.
    ("\ud800", "\ud800"),
    ("\ud800", "\ud800a"),
    ("\ud800a", "a\ud800"),
    ("\ud83d\ude00", "😀"),
    # Around the 64-character mask and well past it.
    *((_long(size), _long(size)[::-1]) for size in LONG_SIZES),
    *((_long(size), _long(size - 1)) for size in LONG_SIZES),
    (_long(64), _long(65)),
    (_long(130), "a"),
    ("a" * 64, "a" * 63 + "b"),
    ("a" * 65, "a" * 64),
]


def test_batch_jaro_winkler_edge_cases(coded):
    long_only = [
        (left, right)
        for left, right in EDGE_PAIRS
        if max(len(str(left)), len(str(right))) > 64
    ]
    batches = [[pair] for pair in EDGE_PAIRS] + [EDGE_PAIRS, long_only]
    for floor, prefix_scale, max_prefix in (
        (0.0, 0.1, 4),
        (0.8, 0.1, 4),
        (0.0, 0.05, 6),
    ):
        scorer = BoundedJaroWinkler(
            min_similarity=floor,
            prefix_scale=prefix_scale,
            max_prefix=max_prefix,
        )
        for batch in batches:
            scored = scorer.batch_code_similarities(*coded(batch)).tolist()
            assert [value.hex() for value in scored] == [
                scorer(left, right).hex() for left, right in batch
            ]
            if floor == 0.0:
                assert [value.hex() for value in scored] == [
                    jaro_winkler_similarity(
                        left,
                        right,
                        prefix_scale=prefix_scale,
                        max_prefix=max_prefix,
                    ).hex()
                    for left, right in batch
                ]
    empty = np.zeros(0, dtype=np.int64)
    assert not len(
        BoundedJaroWinkler().batch_code_similarities([], empty, empty)
    )


@pytest.mark.parametrize(
    "prefix_scale, max_prefix", [(0.5, 4), (0.1, -3), (-0.1, 4), (-0.1, -3)]
)
def test_bounded_jaro_winkler_checks_prefix_at_construction(
    prefix_scale, max_prefix
):
    with pytest.raises(ValueError, match="prefix_scale"):
        BoundedJaroWinkler(prefix_scale=prefix_scale, max_prefix=max_prefix)


def test_score_codes_batches_only_from_the_crossover():
    calls = []

    class Recording:
        def __init__(self, batch=True):
            self.batch = batch

        def __call__(self, left, right):
            return 0.5

        def batch_code_similarities(self, elements, lefts, rights):
            calls.append(len(lefts))
            return [0.5] * len(lefts) if self.batch else None

    def score(comparator, size):
        codes = np.zeros(size, dtype=np.int64)
        return score_codes(comparator, ["a", "b"], codes, codes + 1)

    small = BATCH_SCORE_MIN_PAIRS - 1
    large = BATCH_SCORE_MIN_PAIRS
    assert score(Recording(), small) == [0.5] * small
    assert calls == []
    assert score(Recording(), large) == [0.5] * large
    assert calls == [large]
    # A hook that declines with None leaves the batch to per-pair calls.
    assert list(score(Recording(batch=False), large)) == [0.5] * large
    assert calls == [large, large]


# ----------------------------------------------------------------------
# SimilarityCache.lookup_codes
# ----------------------------------------------------------------------


def _counted_base(log):
    """A symmetric comparator (the cache's contract) that logs calls."""

    def base(left, right):
        log.append((left, right))
        a, b = len(str(left)), len(str(right))
        return a * b / ((a + b) ** 2 + 1)

    return base


def _table(cache):
    """The cache's full table, decoded: each entry under the unordered
    pair of its operands, tagged with their types (``1`` and ``1.0``
    are different operands)."""
    elements = {
        code: key if type(key) is str else key[1]
        for key, code in cache._codes.items()
    }
    return {
        frozenset(
            (type(elements[code]), repr(elements[code]))
            for code in divmod(key, PAIR_BASE)
        ): value
        for key, value in cache._table.items()
    }


LOOKUPS = [
    ("ab", "abc"),
    ("abc", "ab"),
    ("ab", "ab"),
    ("x", "y"),
    ("ab", "abc"),
    (1, 1.0),
    (1.0, 1),
    (2, 2),
    ("y", "x"),
]


@pytest.mark.parametrize("warm", (False, True))
def test_lookup_batch_answers_and_counts_like_per_pair_calls(coded, warm):
    """From an empty table and one warmed by earlier lookups."""
    scalar = SimilarityCache(_counted_base([]))
    batched = SimilarityCache(_counted_base([]))
    for cache in (scalar, batched):
        if warm:
            cache("x", "y")
            cache("ab", "q")
    counts = [1, 2, 1, 3, 1, 1, 2, 1, 1]
    expected = []
    for (left, right), count in zip(LOOKUPS, counts):
        for _ in range(count):
            value = scalar(left, right)
        expected.append(value)
    assert batched.lookup_codes(
        *coded(LOOKUPS), {}, counts
    ).tolist() == expected
    assert (batched.hits, batched.misses) == (scalar.hits, scalar.misses)
    assert _table(batched) == _table(scalar)


def test_lookup_batch_near_capacity_replays_the_wholesale_clear(coded):
    scalar = SimilarityCache(_counted_base([]), max_entries=3)
    batched = SimilarityCache(_counted_base([]), max_entries=3)
    pairs = [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h"), ("a", "b")]
    expected = [scalar(left, right) for left, right in pairs]
    assert batched.lookup_codes(*coded(pairs), {}).tolist() == expected
    assert (batched.hits, batched.misses) == (scalar.hits, scalar.misses)
    assert _table(batched) == _table(scalar)


# ----------------------------------------------------------------------
# Equation 5 over a batch
# ----------------------------------------------------------------------

PATTERN_VALUES = [
    ProbabilisticValue.certain("musician"),
    ProbabilisticValue.certain(PatternValue("mu*")),
    ProbabilisticValue({"musician": 0.5, PatternValue("ba*"): 0.3, NULL: 0.2}),
    ProbabilisticValue({"baker": 0.6, NULL: 0.4}),
    ProbabilisticValue.missing(),
    ProbabilisticValue({NULL: 0.5, "banker": 0.5}),
    "musician",
    None,
    ProbabilisticValue({"banker": 0.5, NULL: 0.5}),
]
PLAIN_VALUES = [
    ProbabilisticValue.certain("meier"),
    ProbabilisticValue({"meier": 0.7, "meyer": 0.3}),
    ProbabilisticValue({"meyer": 0.3, "meier": 0.7}),
    ProbabilisticValue({"meier": 0.7, "meyer": 0.3}),
    ProbabilisticValue({"mayer": 0.5, NULL: 0.5}),
    "meyer",
    ProbabilisticValue.missing(),
    None,
    ProbabilisticValue.certain("baker"),
]


def _comparators(name):
    """Two identically configured comparators (per-pair vs batch)."""
    return [
        {
            "jw-cached": lambda: UncertainValueComparator(
                BoundedJaroWinkler(), cache=True
            ),
            "jw-uncached": lambda: UncertainValueComparator(
                BoundedJaroWinkler()
            ),
            "jw-floor": lambda: UncertainValueComparator(
                BoundedJaroWinkler(), cache=True, min_similarity=0.85
            ),
            "edit-floor": lambda: UncertainValueComparator(
                FAST_LEVENSHTEIN, cache=True, min_similarity=0.7
            ),
            "equality": lambda: UncertainValueComparator(),
            "expand": lambda: UncertainValueComparator(
                BoundedJaroWinkler(),
                pattern_policy=PatternPolicy.EXPAND,
                pattern_lexicon=JOBS,
                cache=True,
            ),
            "prefix": lambda: UncertainValueComparator(
                BoundedJaroWinkler(),
                pattern_policy=PatternPolicy.PREFIX,
                cache=True,
            ),
        }[name]()
        for _ in range(2)
    ]


@pytest.mark.parametrize(
    "name",
    (
        "jw-cached",
        "jw-uncached",
        "jw-floor",
        "edit-floor",
        "equality",
        "expand",
        "prefix",
    ),
)
def test_similarity_batch_is_bitwise_the_per_pair_call(name):
    values = (
        PATTERN_VALUES if name in ("expand", "prefix") else PLAIN_VALUES
    )
    scalar, batched = _comparators(name)
    count = len(values)
    lefts = np.array([i for i in range(count) for _ in range(count)])
    rights = np.array([j for _ in range(count) for j in range(count)])

    def check_round():
        expected = [
            scalar(values[i], values[j])
            for i, j in zip(lefts.tolist(), rights.tolist())
        ]
        got = batched.similarity_batch(values, lefts, rights)
        assert [value.hex() for value in got.tolist()] == [
            float(value).hex() for value in expected
        ]
        for mine, theirs in (
            (batched.cache, scalar.cache),
            (batched.exact_cache, scalar.exact_cache),
        ):
            if theirs is not None:
                assert (mine.hits, mine.misses) == (
                    theirs.hits,
                    theirs.misses,
                )

    for _round in range(2):  # the second round answers from the memos
        check_round()
    # A round as decide_batch runs one: the batched comparator first
    # answers one uncertain pair through the per-pair call (the batch's
    # reference decision).  The batch must find that Equation-5 result
    # in the same memo, or it looks the pair's terms up a second time
    # and its cache counters drift from the scalar comparator's.
    scalar, batched = _comparators(name)
    left, right = (2, 3) if values is PATTERN_VALUES else (1, 4)
    batched(values[left], values[right])
    check_round()


def test_similarity_batch_keeps_the_strict_pattern_error():
    comparator = UncertainValueComparator(BoundedJaroWinkler())
    values = ["musician", PatternValue("mu*")]
    with pytest.raises(ValueError, match="strict"):
        comparator.similarity_batch(values, np.array([0]), np.array([1]))


# ----------------------------------------------------------------------
# φ, ϑ and the classifiers
# ----------------------------------------------------------------------

VECTORS = np.array(
    [
        [0.1, 0.7, 0.3],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
        [0.3, 0.3, 0.30000000000000004],
        [1e-9, 0.999999999, 0.5],
        [0.6, 0.2, 0.6],
    ]
)
ATTRIBUTES = ("name", "job", "city")


@pytest.mark.parametrize(
    "combination",
    (
        WeightedSum({"name": 0.5, "job": 0.3, "city": 0.2}),
        WeightedSum([0.7, 0.2, 0.1]),
        Average(),
        Minimum(),
        Maximum(),
    ),
    ids=repr,
)
def test_combine_batch_is_bitwise_the_scalar_call(combination):
    rng = np.random.default_rng(3)
    vectors = np.concatenate((VECTORS, rng.random((200, 3))))
    batch = combination.combine_batch(ATTRIBUTES, vectors)
    for row, value in zip(vectors.tolist(), batch.tolist()):
        vector = ComparisonVector(ATTRIBUTES, row)
        assert value.hex() == float(combination(vector)).hex()


@pytest.mark.parametrize(
    "classifier",
    (
        ThresholdClassifier(0.8, 0.4),
        ThresholdClassifier(0.5),
        ForcedUnsureClassifier(0.8, 0.4, ()),
    ),
    ids=repr,
)
def test_classify_batch_is_the_scalar_classification(classifier):
    values = [0.0, 0.4, 0.39999, 0.5, 0.8, 0.80001, 1.0, math.inf, math.nan]
    assert classifier.classify_batch(values) == [
        classifier.classify(value) for value in values
    ]
    assert classifier.classify_batch(np.array(values)) == [
        classifier.classify(value) for value in values
    ]


def test_expected_similarity_batch_covers_both_branches():
    rng = np.random.default_rng(7)
    shapes = [(1, 1), (2, 3), (8, 8), (9, 8), (3, 1), (12, 12)]
    inputs = []
    for k, l in shapes:
        left = rng.random(k) + 0.1
        right = rng.random(l) + 0.1
        weights = tuple(
            tuple(a / left.sum() * (b / right.sum()) for b in right)
            for a in left
        )
        similarities = tuple(tuple(rng.random(l).tolist()) for _ in range(k))
        inputs.append(DerivationInput(similarities, None, weights))
    offsets = np.concatenate(([0], np.cumsum([k * l for k, l in shapes])))
    batch = DerivationBatch(
        [s for data in inputs for row in data.similarities for s in row],
        None,
        np.array([w for data in inputs for row in data.weights for w in row]),
        offsets,
        shapes,
    )
    derivation = ExpectedSimilarity()
    assert [batch.input(p) for p in range(len(shapes))] == inputs
    assert [v.hex() for v in derivation.derive_batch(batch)] == [
        derivation(data).hex() for data in inputs
    ]


# ----------------------------------------------------------------------
# decide_batch
# ----------------------------------------------------------------------


def _relation():
    def alt(name, job, p):
        return TupleAlternative({"name": name, "job": job}, p)

    meier = ProbabilisticValue({"meier": 0.7, "meyer": 0.3})
    return [
        XTuple("t1", [alt(meier, "baker", 0.6), alt("maier", "baker", 0.3)]),
        XTuple("t2", [alt("meier", PatternValue("ba*"), 1.0)]),
        XTuple("t3", [alt(None, "banker", 0.5), alt("meyer", None, 0.5)]),
        XTuple(
            "t4",
            [alt(f"mei{c}r", "baker", 0.1) for c in "abcdefghi"],
        ),
        XTuple(
            "t5",
            [alt(f"mey{c}r", "banker", 0.1) for c in "abcdefghi"],
        ),
    ]


def _procedure(combination=None):
    matcher = AttributeMatcher(
        {
            "name": UncertainValueComparator(BoundedJaroWinkler(), cache=True),
            "job": UncertainValueComparator(
                BoundedJaroWinkler(),
                pattern_policy=PatternPolicy.EXPAND,
                pattern_lexicon=JOBS,
                cache=True,
            ),
        }
    )
    model = CombinedDecisionModel(
        combination or WeightedSum({"name": 0.6, "job": 0.4}),
        ThresholdClassifier(0.8, 0.5),
    )
    return XTupleDecisionProcedure(matcher, model)


@pytest.mark.parametrize("keep_derivations", (True, False))
def test_decide_batch_equals_decide_pair_by_pair(keep_derivations):
    tuples = _relation()
    pairs = [
        (left, right)
        for index, left in enumerate(tuples)
        for right in tuples[index + 1 :]
    ]
    expected = [
        _procedure().decide(left, right, keep_derivations=keep_derivations)
        for left, right in pairs
    ]
    got = _procedure().decide_batch(
        [left for left, _ in pairs],
        [right for _, right in pairs],
        keep_derivations,
    )
    assert got == expected
    assert [repr(d.similarity) for d in got] == [
        repr(d.similarity) for d in expected
    ]
    assert _procedure().decide_batch([], [], keep_derivations) == []


def test_decide_batch_fails_loudly_when_it_drifts_from_decide():
    class Drifting(WeightedSum):
        def combine_batch(self, attributes, vectors):
            return super().combine_batch(attributes, vectors) * 0.5

    tuples = _relation()
    procedure = _procedure(Drifting({"name": 0.6, "job": 0.4}))
    with pytest.raises(RuntimeError, match="per-pair procedure"):
        # 9 × 9 alternatives: 81 cells, above BATCH_MIN_CELLS.
        procedure.decide_batch([tuples[3]], [tuples[4]], False)


def test_small_batches_are_decided_pair_by_pair(monkeypatch):
    tuples = _relation()
    procedure = _procedure()
    assert 2 * 2 + 2 * 1 < BATCH_MIN_CELLS

    def unused(*args):
        raise AssertionError("a small batch must not take the array path")

    monkeypatch.setattr(procedure.matcher, "compare_batch", unused)
    got = procedure.decide_batch(tuples[:2], tuples[2:4], True)
    assert got == [
        _procedure().decide(left, right)
        for left, right in zip(tuples[:2], tuples[2:4])
    ]


def test_decide_batch_statuses_come_from_the_final_classifier():
    tuples = _relation()
    got = _procedure().decide_batch(tuples[:4], tuples[1:], False)
    assert {d.status for d in got} <= set(MatchStatus)


def test_batch_of_differing_schemas_is_decided_pair_by_pair(monkeypatch):
    """Tuples whose schemas differ share no vector layout: the batch is
    decided pair by pair, and an attribute without a comparator that
    only a right-hand tuple holds raises nowhere, as in ``decide``."""
    tuples = _relation()
    extra = XTuple(
        "t6",
        [
            TupleAlternative(
                {"name": "meier", "job": "baker", "city": "bern"}, 1.0
            )
        ],
    )
    lefts = [tuples[3], tuples[0]]
    rights = [tuples[4], extra]
    procedure = _procedure()

    def unused(*args):
        raise AssertionError("differing schemas must not take the array path")

    monkeypatch.setattr(procedure.matcher, "compare_batch", unused)
    got = procedure.decide_batch(lefts, rights, True)
    assert got == [
        _procedure().decide(left, right) for left, right in zip(lefts, rights)
    ]


def test_coded_view_forgets_changed_tuples():
    """A view kept across batches forgets an id whose content changed:
    the next batch appends the new content at a position no live tuple
    holds and decides as ``decide`` does; once forgotten tuples
    outnumber live ones, the view starts over."""
    t1, _t2, t3, t4, t5 = _relation()
    procedure = _procedure()
    view = CodedView(procedure.matcher)
    # 81 + 4 cells: an array batch; positions t4, t1, t5, t3.
    procedure.decide_batch([t4, t1], [t5, t3], False, view)
    changed = XTuple(
        "t1", [TupleAlternative({"name": "meyer", "job": "banker"}, 1.0)]
    )
    view.forget(["t1", "unknown"])
    lefts, rights = [t4, changed, t3], [t5, t3, changed]
    got = procedure.decide_batch(lefts, rights, False, view)
    assert got == [
        _procedure().decide(left, right, keep_derivations=False)
        for left, right in zip(lefts, rights)
    ]
    left_at, _right_at = view.locate(lefts, rights, ["t4", "t1", "t3"], [])
    assert left_at.tolist() == [0, 4, 3]

    view.forget(["t4"])  # dead: the old t1 and t4; live: t5, t3, t1
    assert (len(view._positions), len(view._first)) == (3, 5)
    view.forget(["t5"])  # dead 3 > live 2
    assert len(view._positions) == len(view._first) == 0
