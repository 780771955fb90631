"""The two edit kernels: bitwise pinning, selection and comparator clones.

* **kernel pinning** — the Myers bit-parallel kernels behind ``"fast"``
  reproduce the reference DPs bit for bit, over unicode, empty
  strings, strings beyond the 64-bit word boundary, and every
  ``min_similarity`` cutoff band (hypothesis properties plus directed
  edges);
* **selection** — only ``"fast"`` and ``"python"`` are accepted, by
  ``detect``, ``session`` and ``ExecutionSettings`` alike;
* **comparator clones** — kernel switches keep name, band and scores,
  and share the similarity caches;
* **end-to-end equivalence** — every reducer family's detection run on
  ``"fast"`` is bitwise identical to the ``"python"`` oracle under
  every execution mode
  (default chunk, packed at a small chunk, streamed, spilled store,
  threshold-pruned).  ``tests/test_differential.py`` samples the wider
  configuration lattice.
"""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.datagen.corpus import JOBS
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
from repro.matching.comparison import AttributeMatcher
from repro.matching.executor import ExecutionSettings
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
from repro.similarity import (
    FAST_DAMERAU_LEVENSHTEIN,
    FAST_JARO_WINKLER,
    FAST_LEVENSHTEIN,
    SimilarityCache,
    bitparallel_damerau_levenshtein,
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein,
    bitparallel_levenshtein_similarity,
    damerau_levenshtein_distance,
    levenshtein_distance,
)
from repro.similarity.kernels import (
    banded_damerau_levenshtein_similarity,
    banded_levenshtein_similarity,
)
from repro.similarity.uncertain import PatternPolicy, UncertainValueComparator

# ----------------------------------------------------------------------
# Strategies: unicode text crossing the 64-char machine-word boundary
# ----------------------------------------------------------------------

TEXT = st.text(max_size=24)
LONG_TEXT = st.text(
    alphabet=st.sampled_from("abcdß€𝄞"), min_size=0, max_size=90
)
FLOORS = st.sampled_from([0.0, 0.15, 0.4, 0.85, 0.99])

# ----------------------------------------------------------------------
# Bit-parallel kernels vs reference DPs
# ----------------------------------------------------------------------


class TestBitparallelPinning:
    @settings(max_examples=200, deadline=None)
    @given(left=TEXT, right=TEXT)
    def test_exact_levenshtein_matches_reference(self, left, right):
        assert bitparallel_levenshtein(left, right) == (
            levenshtein_distance(left, right)
        )

    @settings(max_examples=200, deadline=None)
    @given(left=TEXT, right=TEXT)
    def test_exact_damerau_matches_reference(self, left, right):
        assert bitparallel_damerau_levenshtein(left, right) == (
            damerau_levenshtein_distance(left, right)
        )

    @settings(max_examples=100, deadline=None)
    @given(left=LONG_TEXT, right=LONG_TEXT)
    def test_block_extension_beyond_64_chars(self, left, right):
        assert bitparallel_levenshtein(left, right) == (
            levenshtein_distance(left, right)
        )
        assert bitparallel_damerau_levenshtein(left, right) == (
            damerau_levenshtein_distance(left, right)
        )

    @settings(max_examples=150, deadline=None)
    @given(left=TEXT, right=TEXT, cap=st.integers(0, 6))
    def test_capped_distance_contract(self, left, right, cap):
        exact = levenshtein_distance(left, right)
        capped = bitparallel_levenshtein(left, right, max_distance=cap)
        if exact <= cap:
            assert capped == exact
        else:
            assert capped > cap

    @settings(max_examples=200, deadline=None)
    @given(left=TEXT, right=TEXT, floor=FLOORS)
    def test_similarity_pinned_across_cutoff_bands(
        self, left, right, floor
    ):
        assert bitparallel_levenshtein_similarity(
            left, right, min_similarity=floor
        ) == banded_levenshtein_similarity(
            left, right, min_similarity=floor
        )
        assert bitparallel_damerau_levenshtein_similarity(
            left, right, min_similarity=floor
        ) == banded_damerau_levenshtein_similarity(
            left, right, min_similarity=floor
        )

    def test_directed_edges(self):
        assert bitparallel_levenshtein("", "") == 0
        assert bitparallel_levenshtein("", "abc") == 3
        assert bitparallel_levenshtein("abc", "") == 3
        assert bitparallel_damerau_levenshtein("ab", "ba") == 1
        assert bitparallel_levenshtein("ab", "ba") == 2
        # Transposition straddling a 64-char block boundary.
        left = "x" * 63 + "ab" + "y" * 10
        right = "x" * 63 + "ba" + "y" * 10
        assert bitparallel_damerau_levenshtein(left, right) == 1
        assert bitparallel_levenshtein_similarity("", "") == 1.0
        # Non-string operands go through the shared coercion.
        assert bitparallel_levenshtein_similarity(
            1, 1.0
        ) == banded_levenshtein_similarity(1, 1.0)


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


#: Only "fast" and "python" exist; the retired selector values fail as
#: loudly as a typo, wherever a kernel is named.
UNKNOWN_KERNELS = ("auto", "bitparallel", "numpy", "imaginary")


class TestBackendSelection:
    def test_unknown_backend_raises(self):
        relation = generate_dataset(
            DatasetConfig(entity_count=4, seed=7), flat=True
        ).relation
        detector = DuplicateDetector(default_matcher(), weighted_model())
        for name in UNKNOWN_KERNELS:
            with pytest.raises(ValueError, match="unknown kernel backend"):
                detector.session(relation, kernel_backend=name)
            with pytest.raises(ValueError, match="unknown kernel backend"):
                ExecutionSettings(kernel_backend=name)
            with pytest.raises(ValueError, match="unknown kernel backend"):
                FAST_LEVENSHTEIN.with_backend(name)

    def test_detect_rejects_unknown_backend(self):
        relation = generate_dataset(
            DatasetConfig(entity_count=4, seed=7), flat=True
        ).relation
        detector = DuplicateDetector(default_matcher(), weighted_model())
        for name in UNKNOWN_KERNELS:
            with pytest.raises(ValueError, match="unknown kernel backend"):
                detector.detect(relation, kernel_backend=name)


# ----------------------------------------------------------------------
# Backend-aware comparators and caches
# ----------------------------------------------------------------------


class TestComparatorBackends:
    def test_with_backend_clones_preserve_band_and_kind(self):
        fast = FAST_LEVENSHTEIN.with_min_similarity(0.85)
        clone = fast.with_backend("python")
        assert clone is not fast
        assert clone.kind == fast.kind
        assert clone.min_similarity == fast.min_similarity
        assert clone.name == fast.name
        # Same backend → same object; fast round-trip restores.
        assert clone.with_backend("python") is clone
        assert clone.with_backend("fast") is not clone
        assert fast.with_backend("fast") is fast

    @pytest.mark.parametrize(
        "comparator", [FAST_LEVENSHTEIN, FAST_DAMERAU_LEVENSHTEIN]
    )
    def test_backend_clones_score_bitwise(self, comparator):
        pairs = [
            ("meier", "maier"),
            ("jones", "johnson"),
            ("", "smith"),
            ("𝄞music", "music𝄞"),
            ("x" * 70, "x" * 69 + "y"),
        ]
        for floor in (0.0, 0.4, 0.85):
            clone = comparator.with_min_similarity(floor)
            reference = clone.with_backend("python")
            for left, right in pairs:
                assert clone(left, right) == reference(left, right)

    def test_cache_exports_only_strings_and_keeps_1_and_1_0_apart(self):
        cache = SimilarityCache(FAST_JARO_WINKLER)
        cache(1, "1.0")
        cache(1.0, "1.0")
        cache(1, 1.0)  # unequal types: not the reflexive shortcut
        cache("meier", "maier")
        cache(1.0, 1)  # the (1, 1.0) entry, looked up the other way
        assert len(cache) == 4
        assert (cache.hits, cache.misses) == (1, 4)
        assert cache(1, "1.0") != cache(1.0, "1.0")
        assert len(cache._codes) == 5  # 1 and 1.0 coded apart

    def test_cache_wholesale_clear_resets_codes_and_cursors(self):
        cache = SimilarityCache(FAST_JARO_WINKLER, max_entries=2)
        cache("a", "b")
        cache("c", "d")
        cache("e", "f")  # overflow: table and code map clear wholesale
        assert len(cache) == 1
        assert cache._codes == {"e": 0, "f": 1}
        cache.clear()
        assert (len(cache), cache._codes) == (0, {})

    def test_default_detect_warms_the_detectors_own_caches(self):
        """The edit constants are built on the kernel a default run
        resolves to, so a default detect scores through the detector's
        own comparators and caches, not a kernel clone's."""
        relation = generate_dataset(
            DatasetConfig(entity_count=20, seed=7), flat=True
        ).relation
        matcher = AttributeMatcher(
            {
                "name": UncertainValueComparator(
                    FAST_LEVENSHTEIN, cache=True
                ),
                "job": UncertainValueComparator(
                    FAST_DAMERAU_LEVENSHTEIN,
                    cache=True,
                    pattern_policy=PatternPolicy.EXPAND,
                    pattern_lexicon=JOBS,
                ),
            }
        )
        detector = DuplicateDetector(matcher, weighted_model())
        detector.detect(relation)
        stats = detector.procedure.matcher.cache_stats()
        assert set(stats) == {"name", "job"}
        for cache in stats.values():
            assert cache.hits > 0
            assert cache.misses > 0
            assert len(cache) > 0


# ----------------------------------------------------------------------
# End-to-end: each half of the fast kernel decides like "python"
# ----------------------------------------------------------------------

SORT_KEY = SubstringKey([("name", 3), ("job", 2)])
BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])


def r34() -> XRelation:
    from repro.experiments.paper_data import MU_JOBS, relation_r34

    return XRelation(
        "R34x",
        ("name", "job"),
        [
            xt.expand_patterns({"job": MU_JOBS}).expand()
            for xt in relation_r34()
        ],
    )


@pytest.fixture(scope="module")
def flat_relation():
    return generate_dataset(
        DatasetConfig(entity_count=16, seed=91), flat=True
    ).relation


@pytest.fixture(scope="module")
def x_relation():
    return generate_dataset(DatasetConfig(entity_count=9, seed=93)).relation


@pytest.fixture(scope="module")
def stores(tmp_path_factory, flat_relation, x_relation):
    root = tmp_path_factory.mktemp("stores")
    spilled = {}
    for kind, relation in (
        ("flat", flat_relation),
        ("x", x_relation),
        ("r34", r34()),
    ):
        relation.spill(
            str(root / kind), segment_size=7, page_size=4, max_pages=3
        )
        spilled[kind] = str(root / kind)
    return spilled


#: The same ten-reducer matrix the planner and storage suites pin.
REDUCERS = {
    "full": (lambda: FullComparison(), "flat"),
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
    "phonetic_blocking": (lambda: PhoneticBlocking(), "x"),
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


def _relation_for(kind, flat_relation, x_relation):
    if kind == "flat":
        return flat_relation
    if kind == "x":
        return x_relation
    return r34()


def _edit_matcher():
    """:func:`default_matcher` with ``job`` scored by an edit comparator,
    so the run's ``kernel_backend`` decides which edit kernel runs."""
    return AttributeMatcher(
        {
            "name": UncertainValueComparator(FAST_JARO_WINKLER, cache=True),
            "job": UncertainValueComparator(
                FAST_LEVENSHTEIN,
                pattern_policy=PatternPolicy.EXPAND,
                pattern_lexicon=JOBS,
                cache=True,
            ),
        }
    )


def _detector(factory, matcher=default_matcher):
    return DuplicateDetector(matcher(), weighted_model(), reducer=factory())


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_backend_detection_is_bitwise_python(
    name, flat_relation, x_relation, stores
):
    """The acceptance pin: every reducer × mode on ``"fast"``.

    ``"fast"`` scores every edit pair with the Myers bit-parallel
    kernels, batch misses included.
    """
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)

    def detector():
        return _detector(factory, _edit_matcher)

    reference = _triples(detector().detect(relation, kernel_backend="python"))

    serial_detector = detector()
    serial = serial_detector.detect(relation, kernel_backend="fast")
    assert _triples(serial) == reference
    assert serial_detector.last_report.kernel_backend == "fast"

    packed = detector().detect(relation, kernel_backend="fast", chunk_size=7)
    assert _triples(packed) == reference

    slices = list(
        detector().detect(relation, kernel_backend="fast", stream=True)
    )
    assert [
        triple for piece in slices for triple in _triples(piece)
    ] == reference

    store = open_store(stores[kind], page_size=4, max_pages=3)
    spilled = detector().detect(store, kernel_backend="fast")
    assert _triples(spilled) == reference

    pruned = detector().detect(
        relation, kernel_backend="fast", min_similarity="auto"
    )
    assert _triples(pruned) == reference
