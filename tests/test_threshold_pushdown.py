"""Golden equivalence suite for threshold pushdown (``min_similarity``).

The pushdown contract (:mod:`repro.matching.pushdown`): for every model
that derives safe floors, cutoff-pruned detection is **bitwise equal**
to the exact path — same decision order, same statuses, same derived
similarities — because the floors are φ-level invariance points.  That
is strictly stronger than the acceptance guarantee (identical accepted
pairs with bitwise-equal similarities at or above T_λ), and this suite
pins both:

* **pipeline equivalence** — for every Section-V reducer and both
  prunable model families (rules, Fellegi–Sunter), ``detect`` with
  ``min_similarity="auto"`` matches the exact run bit for bit: at the
  default chunk, packed at a small one, ``stream=True``, against the
  in-memory relation *and* an out-of-core spilled store;
* **floor derivation** — the inversion yields exactly the weakest
  decisive thresholds (rule-condition minima, agreement thresholds) and
  refuses configurations it cannot prove safe (continuous combiners,
  unrecognized derivations);
* **kernel/cache banding** — hypothesis properties for the
  "exact at or above the floor, exact-or-0.0 below" kernel contract and
  the banded similarity caches of configured comparators.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import JOBS, DatasetConfig, generate_dataset
from repro.matching import (
    AttributeMatcher,
    CombinedDecisionModel,
    DuplicateDetector,
    FellegiSunterModel,
    FullComparison,
    IdentificationRule,
    LogLikelihoodRatio,
    MatchingWeight,
    RuleBasedModel,
    SimilarityFloors,
    ThresholdClassifier,
    derive_floors,
    estimate_em,
)
from repro.matching.comparison import ComparisonVector
from repro.matching.decision.rules import Condition
from repro.matching.derivation import ExpectedSimilarity
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
    FAST_LEVENSHTEIN,
    PatternPolicy,
    SimilarityCache,
    UncertainValueComparator,
    banded_damerau_levenshtein_similarity,
    banded_levenshtein_similarity,
    damerau_levenshtein_similarity,
    levenshtein_similarity,
)

SORT_KEY = SubstringKey([("name", 3), ("job", 2)])
BLOCK_KEY = SubstringKey([("name", 1), ("job", 1)])


def fast_matcher() -> AttributeMatcher:
    """Levenshtein matcher whose base kernels are bandable."""
    return AttributeMatcher(
        {
            "name": UncertainValueComparator(FAST_LEVENSHTEIN, cache=True),
            "job": UncertainValueComparator(
                FAST_LEVENSHTEIN,
                cache=True,
                pattern_policy=PatternPolicy.EXPAND,
                pattern_lexicon=JOBS,
            ),
        }
    )


def fs_model() -> FellegiSunterModel:
    return FellegiSunterModel(
        m_probabilities={"name": 0.92, "job": 0.7},
        u_probabilities={"name": 0.03, "job": 0.05},
        classifier=ThresholdClassifier(40.0, 2.0),
        agreement_threshold=0.82,
    )


def rules_model() -> RuleBasedModel:
    return RuleBasedModel(
        [
            IdentificationRule.build(
                [("name", 0.8), ("job", 0.5)], certainty=0.8
            ),
            IdentificationRule.build(
                [("name", 0.95)], certainty=0.9, name="exact-name"
            ),
        ],
        ThresholdClassifier(0.75, 0.5),
    )


MODELS = {"fellegi_sunter": fs_model, "rules": rules_model}


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
        DatasetConfig(entity_count=20, seed=91), flat=True
    ).relation


@pytest.fixture(scope="module")
def x_relation():
    return generate_dataset(DatasetConfig(entity_count=12, seed=93)).relation


@pytest.fixture(scope="module")
def stores(tmp_path_factory, flat_relation, x_relation):
    root = tmp_path_factory.mktemp("pushdown-stores")
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


def _detector(reducer_factory, model_factory):
    return DuplicateDetector(
        fast_matcher(), model_factory(), reducer=reducer_factory()
    )


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


# ----------------------------------------------------------------------
# The acceptance pin: pruned == exact, every reducer, every mode,
# both storage backends, both prunable model families
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("reducer_name", sorted(REDUCERS))
def test_pruned_detection_is_bitwise_exact(
    reducer_name, model_name, flat_relation, x_relation, stores
):
    factory, kind = REDUCERS[reducer_name]
    model_factory = MODELS[model_name]
    relation = _relation_for(kind, flat_relation, x_relation)
    store = open_store(stores[kind], page_size=4, max_pages=3)

    reference = _detector(factory, model_factory).detect(relation)
    serial = _detector(factory, model_factory).detect(
        relation, min_similarity="auto"
    )
    packed = _detector(factory, model_factory).detect(
        relation, min_similarity="auto", chunk_size=7
    )
    spilled = _detector(factory, model_factory).detect(
        store, min_similarity="auto"
    )
    slices = list(
        _detector(factory, model_factory).detect(
            store,
            min_similarity="auto",
            stream=True,
            keep_compared_pairs=False,
        )
    )

    expected = _triples(reference)
    assert _triples(serial) == expected
    assert _triples(packed) == expected
    assert _triples(spilled) == expected
    assert [
        triple for piece in slices for triple in _triples(piece)
    ] == expected
    assert serial.compared_pairs == reference.compared_pairs

    # The acceptance criterion, stated in its own terms: identical
    # accepted pairs with bitwise-equal derived similarities for every
    # pair at or above the (final) unmatch threshold.
    assert serial.matches == reference.matches
    assert serial.possible_matches == reference.possible_matches
    accepted = {
        (d.left_id, d.right_id): d.similarity
        for d in reference.decisions
        if not d.status.value == "u"
    }
    for decision in serial.decisions:
        key = (decision.left_id, decision.right_id)
        if key in accepted:
            assert decision.similarity == accepted[key]


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("reducer_name", sorted(REDUCERS))
def test_jaro_winkler_floors_bitwise_exact(
    reducer_name, model_name, flat_relation, x_relation
):
    """The experiments' Jaro–Winkler matcher under pushdown, re-pinned.

    ``default_matcher`` (:data:`~repro.similarity.FAST_JARO_WINKLER`
    with pattern expansion) is the matcher every Tier-B study and the
    service CLI run with — so its floor path gets the same golden
    treatment as the Levenshtein one: every reducer, both prunable
    model families, pruned bitwise equal to exact.
    """
    from repro.experiments.quality import default_matcher

    factory, kind = REDUCERS[reducer_name]
    model_factory = MODELS[model_name]
    relation = _relation_for(kind, flat_relation, x_relation)
    exact = DuplicateDetector(
        default_matcher(), model_factory(), reducer=factory()
    ).detect(relation)
    pruned = DuplicateDetector(
        default_matcher(), model_factory(), reducer=factory()
    ).detect(relation, min_similarity="auto")
    assert _triples(pruned) == _triples(exact)
    assert pruned.compared_pairs == exact.compared_pairs


def test_pruned_derivation_inputs_are_bitwise_exact(flat_relation):
    """keep_derivations: the intermediate matrices agree bit for bit."""
    factory = lambda: SortedNeighborhood(SORT_KEY, window=5)  # noqa: E731
    exact = _detector(factory, fs_model).detect(flat_relation)
    pruned = _detector(factory, fs_model).detect(
        flat_relation, min_similarity="auto"
    )
    for left, right in zip(exact.decisions, pruned.decisions):
        assert left.derivation_input.similarities == (
            right.derivation_input.similarities
        )
        assert left.derivation_input.statuses == (
            right.derivation_input.statuses
        )
        assert left.derivation_input.weights == (
            right.derivation_input.weights
        )


def test_decision_based_derivation_is_bitwise_exact(x_relation):
    """Equations 7–9 (MatchingWeight) under pushdown, x-tuple pairs."""
    detector_exact = DuplicateDetector(
        fast_matcher(),
        fs_model(),
        derivation=MatchingWeight(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
    )
    detector_pruned = DuplicateDetector(
        fast_matcher(),
        fs_model(),
        derivation=MatchingWeight(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
    )
    exact = detector_exact.detect(x_relation)
    pruned = detector_pruned.detect(x_relation, min_similarity="auto")
    assert _triples(pruned) == _triples(exact)


def test_explicit_floor_modes(flat_relation):
    """Uniform float and per-attribute mapping floors run and agree."""
    factory = lambda: FullComparison()  # noqa: E731
    exact = _detector(factory, fs_model).detect(flat_relation)
    uniform = _detector(factory, fs_model).detect(
        flat_relation, min_similarity=0.82
    )
    mapped = _detector(factory, fs_model).detect(
        flat_relation, min_similarity={"name": 0.82, "job": 0.82}
    )
    assert _triples(uniform) == _triples(exact)
    assert _triples(mapped) == _triples(exact)
    for bad in ("fastest", True, False, {"nmae": 0.9}, {"name": True}):
        with pytest.raises(ValueError, match="min_similarity"):
            _detector(factory, fs_model).detect(
                flat_relation, min_similarity=bad
            )
    # An attribute the default comparator serves takes a floor.
    defaulted = DuplicateDetector(
        AttributeMatcher(
            {"name": UncertainValueComparator(FAST_LEVENSHTEIN, cache=True)},
            default=UncertainValueComparator(FAST_LEVENSHTEIN, cache=True),
        ),
        fs_model(),
    )
    assert _triples(
        defaulted.detect(flat_relation, min_similarity={"job": 0.82})
    ) == _triples(exact)


def test_cli_rejects_a_bad_min_similarity(flat_relation, tmp_path, capsys):
    """A bad ``--min-similarity`` is a usage error, not a traceback."""
    from repro.pdb import io as pdb_io
    from repro.service.cli import main as cli_main

    base = str(tmp_path / "base.json")
    pdb_io.dump(flat_relation, base)
    for bad in ("abc", "1.5", "-0.1", "nan"):
        with pytest.raises(SystemExit) as info:
            cli_main(["detect", "--base", base, "--min-similarity", bad])
        assert info.value.code == 2
        assert "--min-similarity" in capsys.readouterr().err


def test_empty_relation_detects_nothing_under_pushdown():
    empty = XRelation("empty", ("name", "job"), [])
    result = _detector(FullComparison, fs_model).detect(
        empty, min_similarity="auto"
    )
    assert result.decisions == ()
    assert result.relation_size == 0


def test_pruned_procedure_is_memoized_per_configuration(flat_relation):
    detector = _detector(FullComparison, fs_model)
    first = detector._resolve_run("auto")[0]
    second = detector._resolve_run("auto")[0]
    assert first is second and first is not detector.procedure
    # Explicit floors equal to the derived ones share the signature.
    floors = detector.attribute_floors()
    explicit = detector._resolve_run(
        {attr: floors.floor(attr) for attr in ("name", "job")}
    )[0]
    assert explicit is not detector.procedure


@pytest.mark.parametrize("kernel", ["fast", "python"])
def test_configured_clone_is_reused_warm(flat_relation, kernel):
    """A second run of one ``(floors, kernel)`` reuses the memoized
    clone, whose caches then answer every lookup."""
    detector = _detector(FullComparison, fs_model)
    options = dict(min_similarity="auto", kernel_backend=kernel)
    first = detector.detect(flat_relation, **options)
    procedure = detector._resolve_run(**options)[0]
    assert procedure is not detector.procedure
    comparators = [
        procedure.matcher.comparator_for(attribute)
        for attribute in ("name", "job")
    ]
    caches = [
        cache
        for comparator in comparators
        for cache in (comparator.cache, comparator.exact_cache)
    ]
    misses = [cache.misses for cache in caches]
    assert sum(misses) > 0
    second = detector.detect(flat_relation, **options)
    assert detector._resolve_run(**options)[0] is procedure
    assert [cache.misses for cache in caches] == misses
    assert _triples(second) == _triples(first)


# ----------------------------------------------------------------------
# Floor derivation (the Equations 6–9 inversion)
# ----------------------------------------------------------------------


def test_rule_floors_take_the_weakest_condition_per_attribute():
    floors = rules_model().attribute_floors()
    assert floors.floor("name") == 0.8  # min(0.8, 0.95)
    assert floors.floor("job") == 0.5
    assert floors.floor("salary") == 1.0  # unconditioned ⇒ unobservable


def test_rule_floor_edge_cases():
    always = RuleBasedModel(
        [
            IdentificationRule(
                (Condition("name", 0.0, inclusive=True),), 0.9
            )
        ],
        ThresholdClassifier(0.5),
    )
    # An inclusive threshold-0 condition fires for every similarity:
    # it constrains nothing, so the attribute stays fully prunable.
    assert always.attribute_floors().floor("name") == 1.0

    strict_zero = RuleBasedModel(
        [IdentificationRule((Condition("name", 0.0),), 0.9)],
        ThresholdClassifier(0.5),
    )
    # A strict threshold-0 condition distinguishes 0 from any positive
    # similarity — nothing may be pruned on that attribute.
    assert strict_zero.attribute_floors().floor("name") == 0.0


def test_fs_floors_are_the_agreement_threshold():
    floors = fs_model().attribute_floors()
    assert floors.floor("name") == floors.floor("job") == 0.82
    assert floors.default == 0.82
    assert fs_model().agreement_threshold == 0.82


def test_em_estimated_models_expose_floors():
    vectors = [ComparisonVector(("name",), (0.95,))] * 10 + [
        ComparisonVector(("name",), (0.1,))
    ] * 40
    estimate = estimate_em(vectors, agreement_threshold=0.9)
    model = estimate.to_model(ThresholdClassifier(2.0, 0.5))
    assert estimate.agreement_threshold == 0.9
    assert model.attribute_floors().floor("name") == 0.9


def test_log_likelihood_combiner_exposes_floors():
    model = CombinedDecisionModel(
        LogLikelihoodRatio(
            {"name": 0.9}, {"name": 0.1}, agreement_threshold=0.88
        ),
        ThresholdClassifier(2.0, -2.0),
    )
    floors = derive_floors(model)
    assert floors is not None and floors.floor("name") == 0.88


def test_continuous_combiners_refuse_floors():
    from repro.experiments.quality import weighted_model

    assert weighted_model().attribute_floors() is None
    assert derive_floors(weighted_model()) is None


def test_unrecognized_derivations_disable_pruning():
    class OpaqueDerivation:
        def __call__(self, data):  # pragma: no cover - never invoked
            return 0.0

    assert (
        derive_floors(fs_model(), OpaqueDerivation()) is None
    ), "a ϑ without the protocol flag cannot be proven safe"
    assert derive_floors(fs_model(), ExpectedSimilarity()) is not None


def test_floors_validation():
    with pytest.raises(ValueError, match="outside"):
        SimilarityFloors({"name": 1.5})
    with pytest.raises(ValueError, match="outside"):
        SimilarityFloors({}, default=-0.1)
    assert SimilarityFloors({}, default=0.0).is_exact
    assert not SimilarityFloors({"name": 0.5}).is_exact
    sig = SimilarityFloors({"b": 0.2, "a": 0.1}, default=0.3).signature()
    assert sig == ((("a", 0.1), ("b", 0.2)), 0.3)


# ----------------------------------------------------------------------
# Kernel contract and band-keyed caches
# ----------------------------------------------------------------------

_words = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    max_size=10,
)
_floors = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_words, _words, _floors)
def test_banded_similarity_contract_levenshtein(left, right, floor):
    exact = levenshtein_similarity(left, right)
    pruned = banded_levenshtein_similarity(
        left, right, min_similarity=floor
    )
    if exact >= floor:
        assert pruned == exact
    else:
        assert pruned == exact or pruned == 0.0


@settings(max_examples=200, deadline=None)
@given(_words, _words, _floors)
def test_banded_similarity_contract_damerau(left, right, floor):
    exact = damerau_levenshtein_similarity(left, right)
    pruned = banded_damerau_levenshtein_similarity(
        left, right, min_similarity=floor
    )
    if exact >= floor:
        assert pruned == exact
    else:
        assert pruned == exact or pruned == 0.0


def test_banded_comparator_clones():
    pruned = FAST_LEVENSHTEIN.with_min_similarity(0.8)
    assert pruned is not FAST_LEVENSHTEIN
    assert pruned.min_similarity == 0.8
    assert FAST_LEVENSHTEIN.with_min_similarity(0.0) is FAST_LEVENSHTEIN
    assert pruned.with_min_similarity(0.8) is pruned
    assert FAST_DAMERAU_LEVENSHTEIN.with_min_similarity(
        0.9
    ).min_similarity == 0.9
    with pytest.raises(ValueError, match="min_similarity"):
        FAST_LEVENSHTEIN.with_min_similarity(1.5)


def test_similarity_cache_bands_are_isolated():
    exact = UncertainValueComparator(FAST_LEVENSHTEIN, cache=True)
    banded = exact.configured(0.9).cache
    assert banded is not exact.cache and banded.band == 0.9
    # Each clone holds its own banded cache; configured clones are
    # memoized by the detector, not by the exact cache.
    assert exact.configured(0.9).cache is not banded
    # Entries never leak across bands: a pair below the floor reads
    # 0.0 from the banded cache but its true similarity from the exact.
    assert banded("meier", "baker") == 0.0
    assert exact.cache("meier", "baker") == pytest.approx(0.4)
    assert len(banded) == 1 and len(exact.cache) == 1


def test_pruned_comparator_shares_the_exact_cache():
    exact = UncertainValueComparator(FAST_LEVENSHTEIN, cache=True)
    pruned = exact.configured(0.8)
    assert pruned is not exact
    assert pruned.min_similarity == 0.8
    assert pruned.exact_cache is exact.cache
    assert pruned.cache is not exact.cache
    assert pruned.cache.band == 0.8
    # Fast path: at/above the floor exact, below it 0.0.
    assert pruned("meier", "meyer") == exact("meier", "meyer") == 0.8
    assert exact("meier", "baker") == pytest.approx(0.4)
    assert pruned("meier", "baker") == 0.0
    # No-op clones.
    assert exact.configured(0.0) is exact
    assert exact.configured() is exact
    assert pruned.configured(0.8, "fast") is pruned
    eq4 = UncertainValueComparator()
    assert eq4.configured(0.9, "fast") is eq4
    with pytest.raises(ValueError, match="min_similarity"):
        exact.configured(1.5)
    # Another kernel: a fresh exact cache of the same shape, same floor.
    python = pruned.configured(kernel="python")
    assert python.min_similarity == 0.8
    assert python.exact_cache is not exact.cache
    assert len(python.exact_cache) == 0
    assert python.exact_cache.max_entries == exact.cache.max_entries
    assert python("meier", "meyer") == 0.8
    assert python("meier", "baker") == 0.0


def test_uncertain_expectation_stays_exact_under_pushdown():
    """Equation 5 must use exact domain similarities (convexity)."""
    from repro.pdb.values import ProbabilisticValue

    exact = UncertainValueComparator(FAST_LEVENSHTEIN, cache=True)
    pruned = exact.configured(0.85)
    left = ProbabilisticValue({"meier": 0.5, "baker": 0.5})
    right = ProbabilisticValue.certain("meier")
    assert pruned(left, right) == exact(left, right)


def test_non_bandable_comparators_are_reused_unchanged():
    """No banded kernel ⇒ no clone: pruning must cost nothing there."""
    from repro.similarity import JARO_WINKLER

    jaro = UncertainValueComparator(JARO_WINKLER, cache=True)
    assert jaro.configured(0.8, "fast") is jaro
    matcher = AttributeMatcher(
        {
            "name": UncertainValueComparator(JARO_WINKLER, cache=True),
            "job": UncertainValueComparator(JARO_WINKLER, cache=True),
        }
    )
    assert matcher.configured(SimilarityFloors.uniform(0.82), "fast") is matcher
    detector = DuplicateDetector(matcher, fs_model())
    # Floors derive, but nothing can prune: auto stays the exact
    # procedure instead of memoizing a useless cold clone.
    assert detector._resolve_run("auto")[0] is detector.procedure


def test_pruned_procedure_memo_is_bounded(flat_relation):
    detector = _detector(FullComparison, fs_model)
    from repro.matching.pipeline import _MAX_PRUNED_PROCEDURES

    for step in range(_MAX_PRUNED_PROCEDURES + 3):
        detector._resolve_run(0.5 + step * 0.01)
    assert len(detector._pruned_procedures) <= _MAX_PRUNED_PROCEDURES


def test_matcher_with_floors_threads_per_attribute():
    matcher = fast_matcher()
    floors = SimilarityFloors({"name": 0.9}, default=0.5)
    pruned = matcher.configured(floors)
    assert pruned is not matcher
    assert pruned.comparator_for("name").min_similarity == 0.9
    assert pruned.comparator_for("job").min_similarity == 0.5
    # Exact floors, no floors and the comparators' own kernel leave
    # the matcher untouched.
    assert matcher.configured(SimilarityFloors()) is matcher
    assert matcher.configured(None, "fast") is matcher
    # A kernel switch alone keeps every comparator's floor.
    switched = pruned.configured(None, "python")
    assert switched is not pruned
    assert switched.comparator_for("name").min_similarity == 0.9
    assert switched.comparator_for("job").min_similarity == 0.5
