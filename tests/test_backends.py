"""Pluggable comparison-kernel backends: bitwise pinning + selection.

Three invariant families guard the batch comparison backend:

* **kernel pinning** — the Myers bit-parallel kernels and the numpy
  batch scorer reproduce the reference DPs bit for bit, over unicode,
  empty strings, strings beyond the 64-bit word boundary, and every
  ``min_similarity`` cutoff band (hypothesis properties plus directed
  edges);
* **selection** — ``"auto"`` resolution, the ``REPRO_KERNEL_BACKEND``
  environment override, loud failure on unknown/unavailable names, and
  graceful degradation to ``bitparallel`` when numpy is absent;
* **end-to-end equivalence** — every reducer family's detection run is
  bitwise identical to the ``"python"`` reference backend under every
  execution mode (serial, ``n_jobs=2``, streamed, spilled store,
  threshold-pruned, work stealing).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import default_matcher, weighted_model
from repro.matching import DuplicateDetector, FullComparison
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
    plan_candidates,
)
from repro.reduction.plan import (
    partition_value_pairs,
    partition_vocabulary,
)
from repro.similarity import (
    FAST_DAMERAU_LEVENSHTEIN,
    FAST_LEVENSHTEIN,
    SimilarityCache,
    available_backends,
    bitparallel_damerau_levenshtein,
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein,
    bitparallel_levenshtein_similarity,
    damerau_levenshtein_distance,
    get_backend,
    levenshtein_distance,
    resolve_backend_name,
)
from repro.similarity.backends import BACKEND_ENV_VAR
from repro.similarity.backends import numpy_backend
from repro.similarity.kernels import (
    banded_damerau_levenshtein_similarity,
    banded_levenshtein_similarity,
)

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
# Numpy batch scorer vs reference
# ----------------------------------------------------------------------


class TestNumpyBatchPinning:
    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(st.tuples(TEXT, TEXT), max_size=16),
        floor=FLOORS,
        damerau=st.booleans(),
    )
    def test_batch_similarities_pinned(self, pairs, floor, damerau):
        if damerau:
            batch = numpy_backend.batch_damerau_levenshtein_similarities
            reference = banded_damerau_levenshtein_similarity
        else:
            batch = numpy_backend.batch_levenshtein_similarities
            reference = banded_levenshtein_similarity
        assert batch(pairs, min_similarity=floor) == [
            reference(left, right, min_similarity=floor)
            for left, right in pairs
        ]

    @settings(max_examples=40, deadline=None)
    @given(pairs=st.lists(st.tuples(LONG_TEXT, LONG_TEXT), max_size=8))
    def test_batch_distances_beyond_64_chars(self, pairs):
        assert numpy_backend.batch_edit_distances(pairs) == [
            levenshtein_distance(left, right) for left, right in pairs
        ]
        assert numpy_backend.batch_edit_distances(
            pairs, damerau=True
        ) == [
            damerau_levenshtein_distance(left, right)
            for left, right in pairs
        ]

    def test_per_pair_entry_points_delegate(self):
        assert numpy_backend.numpy_levenshtein("kitten", "sitting") == 3
        assert numpy_backend.numpy_damerau_levenshtein("ab", "ba") == 1
        assert numpy_backend.numpy_levenshtein_similarity(
            "meier", "maier"
        ) == banded_levenshtein_similarity("meier", "maier")


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------


class TestBackendSelection:
    def test_python_and_bitparallel_always_registered(self):
        names = available_backends()
        assert "python" in names
        assert "bitparallel" in names

    def test_auto_prefers_numpy_then_bitparallel(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend_name(None) == "numpy"
        assert resolve_backend_name("auto") == "numpy"

    def test_env_var_overrides_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "python")
        assert resolve_backend_name(None) == "python"
        assert resolve_backend_name("auto") == "python"
        # Explicit names beat the environment.
        assert resolve_backend_name("bitparallel") == "bitparallel"
        monkeypatch.setenv(BACKEND_ENV_VAR, "imaginary")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name(None)

    def test_env_var_is_case_normalized(self, monkeypatch):
        # Operators type environment values; "NumPy", "PYTHON" and
        # surrounding whitespace all resolve to the registered name.
        monkeypatch.setenv(BACKEND_ENV_VAR, "PYTHON")
        assert resolve_backend_name(None) == "python"
        monkeypatch.setenv(BACKEND_ENV_VAR, " BitParallel ")
        assert resolve_backend_name("auto") == "bitparallel"
        monkeypatch.setenv(BACKEND_ENV_VAR, "AUTO")
        # Case-normalized "auto" falls through to preference order.
        assert resolve_backend_name(None) == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "NumPy")
        assert resolve_backend_name(None) == "numpy"

    def test_env_var_casing_does_not_relax_unknown_names(
        self, monkeypatch
    ):
        monkeypatch.setenv(BACKEND_ENV_VAR, "IMAGINARY")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name(None)
        # Explicit API names stay case-sensitive: loud error, no guess.
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name("Python")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend_name("imaginary")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("imaginary")

    def test_numpy_unavailable_falls_back_to_bitparallel(
        self, monkeypatch
    ):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        numpy = get_backend("numpy")
        monkeypatch.setattr(numpy, "_is_available", lambda: False)
        assert not get_backend("numpy").available
        assert resolve_backend_name("auto") == "bitparallel"
        with pytest.raises(ValueError, match="not available"):
            resolve_backend_name("numpy")

    def test_detect_rejects_unknown_backend(self):
        relation = generate_dataset(
            DatasetConfig(entity_count=4, seed=7), flat=True
        ).relation
        detector = DuplicateDetector(default_matcher(), weighted_model())
        with pytest.raises(ValueError, match="unknown kernel backend"):
            detector.detect(relation, kernel_backend="imaginary")


# ----------------------------------------------------------------------
# Backend-aware comparators and caches
# ----------------------------------------------------------------------


class TestComparatorBackends:
    def test_with_backend_clones_preserve_band_and_kind(self):
        fast = FAST_LEVENSHTEIN.with_min_similarity(0.85)
        clone = fast.with_backend("bitparallel")
        assert clone is not fast
        assert clone.backend_name == "bitparallel"
        assert clone.kind == fast.kind
        assert clone.min_similarity == fast.min_similarity
        assert clone.name == fast.name
        # Same backend → same object; python round-trip restores.
        assert clone.with_backend("bitparallel") is clone
        assert fast.with_backend("python") is fast

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
            reference = comparator.with_min_similarity(floor)
            for name in ("bitparallel", "numpy"):
                if not get_backend(name).available:
                    continue
                clone = reference.with_backend(name)
                for left, right in pairs:
                    assert clone(left, right) == reference(left, right)

    def test_batch_similarities_hook(self):
        pairs = [("meier", "maier"), ("bauer", "brauer")]
        python_batch = FAST_LEVENSHTEIN.batch_similarities(pairs)
        clone = FAST_LEVENSHTEIN.with_backend("numpy")
        assert clone.batch_similarities(pairs) == [
            FAST_LEVENSHTEIN(left, right) for left, right in pairs
        ]
        assert python_batch is None

    def test_cache_with_base_shares_the_store(self):
        cache = SimilarityCache(FAST_LEVENSHTEIN)
        cache.warm(["meier", "maier", "mayer"])
        clone = cache.with_base(
            FAST_LEVENSHTEIN.with_backend("bitparallel")
        )
        assert clone is not cache
        assert len(clone) == len(cache)
        before = cache.misses
        assert clone("meier", "maier") == FAST_LEVENSHTEIN(
            "meier", "maier"
        )
        assert cache.misses == before  # served from the shared table
        # Writes through the clone land in the shared store too.
        clone("meier", "unseen")
        assert cache("unseen", "meier") is not None
        assert cache.hits > 0
        # Cursors see what either view stored since, in insertion order,
        # until a wholesale clear through either view — the clear count
        # is shared like the store.
        cursor = cache.cursor()
        clone("meier", "brandt")
        assert cache.export_since(cursor) == [
            ("brandt", "meier", FAST_LEVENSHTEIN("meier", "brandt"))
        ]
        clone.clear()
        assert cache.export_since(cursor) is None
        small = SimilarityCache(FAST_LEVENSHTEIN, max_entries=2)
        small("a", "b")
        cursor = small.cursor()
        small("a", "c")
        small("a", "d")  # overflow: the store clears wholesale
        assert small.export_since(cursor) is None

    def test_banded_caches_memoized_per_band_and_backend(self):
        cache = SimilarityCache(FAST_LEVENSHTEIN)
        python_band = cache.banded(
            0.85, FAST_LEVENSHTEIN.with_min_similarity(0.85)
        )
        fast = FAST_LEVENSHTEIN.with_min_similarity(0.85).with_backend(
            "bitparallel"
        )
        bit_band = cache.banded(0.85, fast)
        assert bit_band is not python_band
        # Same (band, backend) key → the warm derived cache comes back.
        assert cache.banded(0.85, fast) is bit_band
        assert (
            cache.banded(
                0.85, FAST_LEVENSHTEIN.with_min_similarity(0.85)
            )
            is python_band
        )


# ----------------------------------------------------------------------
# End-to-end golden equivalence, all reducers × modes × backends
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

FAST_BACKENDS = [
    name
    for name in ("bitparallel", "numpy")
    if get_backend(name).available
]


def _relation_for(kind, flat_relation, x_relation):
    if kind == "flat":
        return flat_relation
    if kind == "x":
        return x_relation
    return r34()


def _detector(factory):
    return DuplicateDetector(
        default_matcher(), weighted_model(), reducer=factory()
    )


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("name", sorted(REDUCERS))
def test_backend_detection_is_bitwise_python(
    name, backend, flat_relation, x_relation, stores
):
    """The acceptance pin: every reducer × mode, per fast backend."""
    factory, kind = REDUCERS[name]
    relation = _relation_for(kind, flat_relation, x_relation)
    reference = _triples(
        _detector(factory).detect(relation, kernel_backend="python")
    )

    serial_detector = _detector(factory)
    serial = serial_detector.detect(relation, kernel_backend=backend)
    assert _triples(serial) == reference
    assert serial_detector.last_report.kernel_backend == backend

    parallel = _detector(factory).detect(
        relation, kernel_backend=backend, n_jobs=2, chunk_size=7
    )
    assert _triples(parallel) == reference

    slices = list(
        _detector(factory).detect(
            relation, kernel_backend=backend, stream=True
        )
    )
    assert [
        triple for piece in slices for triple in _triples(piece)
    ] == reference

    store = open_store(stores[kind], page_size=4, max_pages=3)
    spilled = _detector(factory).detect(store, kernel_backend=backend)
    assert _triples(spilled) == reference

    pruned = _detector(factory).detect(
        relation, kernel_backend=backend, min_similarity="auto"
    )
    assert _triples(pruned) == reference

    stealing = _detector(factory).detect(
        relation,
        kernel_backend=backend,
        n_jobs=2,
        split_pairs=9,
    )
    assert _triples(stealing) == reference


# ----------------------------------------------------------------------
# Pair-aware pre-warming
# ----------------------------------------------------------------------


class TestPairAwarePrewarm:
    def test_value_pairs_are_a_subset_of_the_vocabulary_square(
        self, flat_relation
    ):
        plan = plan_candidates(
            SortedNeighborhood(SORT_KEY, window=5), flat_relation
        )
        partition = max(plan.partitions, key=lambda p: len(p.pairs))
        vocabulary = partition_vocabulary(flat_relation, partition)
        square = sum(
            len(values) * (len(values) - 1) // 2
            for values in vocabulary.values()
        )
        value_pairs, truncated = partition_value_pairs(
            flat_relation, partition
        )
        assert not truncated
        total = sum(len(pairs) for pairs in value_pairs.values())
        assert 0 < total <= square
        # Every collected combination draws from the vocabulary.
        for attribute, pairs in value_pairs.items():
            observed = set(vocabulary[attribute])
            for left, right in pairs:
                assert left in observed and right in observed

    def test_window_plans_warm_fewer_than_the_square(self, flat_relation):
        # A window of 5 over a sorted run compares only neighbors, so
        # the pair-aware set must undercut the all-pairs square.
        plan = plan_candidates(
            SortedNeighborhood(SORT_KEY, window=5), flat_relation
        )
        partition = max(plan.partitions, key=lambda p: len(p.pairs))
        if len(partition.members) < 8:
            pytest.skip("partition too small to separate the counts")
        vocabulary = partition_vocabulary(flat_relation, partition)
        square = sum(
            len(values) * (len(values) - 1) // 2
            for values in vocabulary.values()
        )
        value_pairs, _ = partition_value_pairs(flat_relation, partition)
        assert sum(len(p) for p in value_pairs.values()) < square

    def test_limit_truncates_and_reports_it(self, flat_relation):
        plan = plan_candidates(
            SortedNeighborhood(SORT_KEY, window=5), flat_relation
        )
        partition = max(plan.partitions, key=lambda p: len(p.pairs))
        value_pairs, truncated = partition_value_pairs(
            flat_relation, partition, limit=3
        )
        assert truncated
        assert sum(len(pairs) for pairs in value_pairs.values()) == 3

    def test_matcher_warm_pairs_fills_and_is_idempotent(
        self, flat_relation
    ):
        plan = plan_candidates(
            SortedNeighborhood(SORT_KEY, window=5), flat_relation
        )
        partition = max(plan.partitions, key=lambda p: len(p.pairs))
        value_pairs, _ = partition_value_pairs(flat_relation, partition)
        matcher = default_matcher()
        warmed, examined, complete = matcher.warm_pairs(value_pairs)
        assert complete
        assert warmed > 0
        assert examined >= warmed
        again, _, complete_again = matcher.warm_pairs(value_pairs)
        assert again == 0
        assert complete_again

    def test_prewarmed_run_freezes_and_undershoots_the_square(
        self, flat_relation
    ):
        detector = _detector(
            lambda: SortedNeighborhood(SORT_KEY, window=5)
        )
        result = detector.detect(flat_relation, n_jobs=2, chunk_size=7)
        report = detector.last_report
        assert report.prewarmed_entries > 0
        assert report.caches_frozen
        plan = plan_candidates(
            SortedNeighborhood(SORT_KEY, window=5), flat_relation
        )
        squares = 0
        for partition in plan:
            vocabulary = partition_vocabulary(flat_relation, partition)
            squares += sum(
                len(values) * (len(values) - 1) // 2
                for values in vocabulary.values()
            )
        assert report.prewarmed_entries < squares
        reference = _detector(
            lambda: SortedNeighborhood(SORT_KEY, window=5)
        ).detect(flat_relation)
        assert _triples(result) == _triples(reference)


def test_env_var_steers_the_whole_detection(monkeypatch, flat_relation):
    monkeypatch.setenv(BACKEND_ENV_VAR, "bitparallel")
    detector = DuplicateDetector(default_matcher(), weighted_model())
    result = detector.detect(flat_relation)
    assert detector.last_report.kernel_backend == "bitparallel"
    monkeypatch.setenv(BACKEND_ENV_VAR, "python")
    reference_detector = DuplicateDetector(
        default_matcher(), weighted_model()
    )
    reference = reference_detector.detect(flat_relation)
    assert _triples(result) == _triples(reference)
    assert reference_detector.last_report.kernel_backend == "python"
