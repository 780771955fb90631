"""Statistical test layer for calibrated decisions (ISSUE 9 tentpole).

Pins, in order:

* **conformal guarantee** — seeded hypothesis property: the conformal
  threshold's held-out FPR stays at or below the target (up to the
  finite-sample DKW slack of the holdout size), and its in-sample FPR
  never exceeds the target at all;
* **NP structure** — thresholds are monotone non-increasing in the
  target, and the conformal threshold never undercuts the NP one;
* **safety gates** — size / degeneracy / infeasibility / drift trips
  are exact, deterministic, and force every decision to UNSURE
  (``MatchStatus.POSSIBLE``);
* **reason codes** — categorization is total over all floats (±inf and
  NaN included) and can never disagree with the classifier's status;
* **golden pinning** — a ``CalibratedModel`` whose calibrated
  thresholds coincide with the inner model's decides bitwise
  identically to the unwrapped model, floors still pruning;
* **audit manifests** — round-trip with tamper detection, and the
  acceptance pin: a spilled run's manifest, packed at a small chunk
  size, is byte-identical to the in-memory reference;
* **sessions** — incremental ingest with a calibrated model stays
  bitwise equal to from-scratch detection, gate trips surface in
  ``SessionStats``, session manifests fingerprint-equal detect ones;
* **chaos** — under seeded fault injection (``on_error="skip"``) the
  shrunken calibration set trips the same gates on every run, and the
  manifest records exactly the skipped partitions.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditManifest,
    ManifestIntegrityError,
    load_manifest,
)
from repro.datagen import DatasetConfig, generate_dataset
from repro.experiments.quality import (
    default_matcher,
    run_e3_calibration,
    weighted_model,
)
from repro.matching import (
    CalibratedModel,
    CalibrationPair,
    CalibrationSet,
    DuplicateDetector,
    ForcedUnsureClassifier,
    FullComparison,
    IdentificationRule,
    MatchStatus,
    ReasonCategory,
    RuleBasedModel,
    SafetyGates,
    ThresholdClassifier,
    calibrate,
    calibrate_conformal,
    calibrate_np,
    categorize_decision,
    check_safety_gates,
    empirical_fpr,
)
from repro.matching.decision.gates import (
    GATE_DEGENERATE_SCORES,
    GATE_INFEASIBLE,
    GATE_MAX_FPR_DRIFT,
    GATE_MIN_CALIBRATION_SIZE,
)
from repro.matching.executor import RetryPolicy
from repro.pdb import io as pdb_io
from repro.pdb.io import open_store
from repro.pdb.relations import XRelation
from repro.pdb.xtuples import XTuple
from repro.reduction import (
    CertainKeyBlocking,
    SortedNeighborhood,
    SubstringKey,
)
from repro.service.cli import main as cli_main
from repro.testing import FaultInjector, crash_on, installed

SORT_KEY = SubstringKey([("name", 3), ("job", 2)])
BLOCK_KEY = SubstringKey([("name", 1)])

#: Deterministic split/seed constants mirroring the gate defaults.
SPLIT_SEED = 20100301


@pytest.fixture(scope="module")
def flat_dataset():
    return generate_dataset(
        DatasetConfig(entity_count=20, seed=91), flat=True
    )


@pytest.fixture(scope="module")
def flat_relation(flat_dataset):
    return flat_dataset.relation


@pytest.fixture(scope="module")
def spilled_flat(tmp_path_factory, flat_relation):
    root = tmp_path_factory.mktemp("calibration-store")
    flat_relation.spill(
        str(root / "flat"), segment_size=7, page_size=4, max_pages=3
    )
    return str(root / "flat")


def rules_model() -> RuleBasedModel:
    return RuleBasedModel(
        [
            IdentificationRule.build(
                [("name", 0.8), ("job", 0.5)], certainty=0.8, name="both"
            ),
            IdentificationRule.build(
                [("name", 0.95)], certainty=0.9, name="exact-name"
            ),
        ],
        ThresholdClassifier(0.75, 0.5),
    )


def _triples(result):
    return [
        (d.left_id, d.right_id, d.status, d.similarity)
        for d in result.decisions
    ]


@st.composite
def labeled_sets(draw, min_nonmatch=60, max_nonmatch=200):
    """Exchangeable labeled sets, seeded through hypothesis."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_nonmatch, max_nonmatch))
    rng = random.Random(seed)
    pairs = [
        CalibrationPair(f"n{i:04d}", rng.random() ** 2, False)
        for i in range(n)
    ]
    pairs += [
        CalibrationPair(f"m{i:04d}", 0.4 + 0.6 * rng.random(), True)
        for i in range(n // 4)
    ]
    return CalibrationSet(pairs)


# ----------------------------------------------------------------------
# The conformal FPR guarantee (seeded hypothesis property)
# ----------------------------------------------------------------------


@given(calibration=labeled_sets(), target=st.sampled_from([0.05, 0.1, 0.2]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_conformal_fpr_holds_on_heldout_split(calibration, target):
    """Held-out FPR ≤ target + finite-sample slack.

    The ``(n+1)``-corrected conformal threshold bounds the *expected*
    exceedance probability of a new exchangeable non-match by the
    target; the empirical holdout estimate then deviates from that
    truth by at most the one-sided DKW margin of the holdout size plus
    the fit-side quantile fluctuation.  Derandomized examples make the
    composite bound a fixed assertion.
    """
    fit, holdout = calibration.split(0.5, SPLIT_SEED)
    result = calibrate_conformal(fit, target)
    assert result.feasible
    # In-sample: the conformal quantile never exceeds the target, ever.
    assert result.calibration_fpr <= target
    m = len(holdout.nonmatch_scores)
    slack = math.sqrt(math.log(1.0 / 0.01) / (2.0 * m))
    observed = empirical_fpr(result.threshold, holdout.nonmatch_scores)
    assert observed <= target + slack


def test_conformal_dkw_tightening_is_conservative():
    """``alpha`` inflates the quantile: a strictly safer threshold.

    On a set large enough for the DKW margin to stay feasible, the
    tightened threshold dominates the plain one, and requesting more
    confidence (smaller ``alpha``) never loosens it.  On small sets the
    tightening honestly reports infeasibility instead of pretending.
    """
    rng = random.Random(2010)
    big = CalibrationSet(
        [
            CalibrationPair(f"n{i:04d}", rng.random(), False)
            for i in range(2000)
        ]
    )
    plain = calibrate_conformal(big, 0.1)
    tightened = calibrate_conformal(big, 0.1, alpha=0.05)
    stricter = calibrate_conformal(big, 0.1, alpha=0.01)
    assert tightened.feasible
    assert tightened.threshold >= plain.threshold
    assert stricter.threshold >= tightened.threshold
    assert tightened.calibration_fpr <= 0.1
    small = CalibrationSet(
        [CalibrationPair(f"n{i}", i / 40, False) for i in range(40)]
    )
    assert not calibrate_conformal(small, 0.05, alpha=0.05).feasible
    with pytest.raises(ValueError, match="alpha"):
        calibrate_conformal(big, 0.1, alpha=1.5)


@given(calibration=labeled_sets(min_nonmatch=40, max_nonmatch=120))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_np_calibration_fpr_never_exceeds_target(calibration):
    for target in (0.02, 0.05, 0.1, 0.25):
        result = calibrate_np(calibration, target)
        assert result.feasible
        assert result.calibration_fpr <= target


@given(
    calibration=labeled_sets(min_nonmatch=40, max_nonmatch=120),
    targets=st.lists(
        st.floats(0.01, 0.5), min_size=2, max_size=5, unique=True
    ),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_np_threshold_monotone_in_target(calibration, targets):
    """A stricter FPR target never lowers the NP threshold."""
    thresholds = [
        calibrate_np(calibration, t).threshold for t in sorted(targets)
    ]
    assert thresholds == sorted(thresholds, reverse=True)


@given(
    calibration=labeled_sets(min_nonmatch=40, max_nonmatch=120),
    target=st.floats(0.01, 0.5),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_conformal_never_undercuts_np(calibration, target):
    """Conformal is the conservative one: its threshold is ≥ NP's."""
    conformal = calibrate_conformal(calibration, target)
    np_rule = calibrate_np(calibration, target)
    assert conformal.threshold >= np_rule.threshold


def test_conformal_infeasible_on_tiny_set():
    tiny = CalibrationSet(
        [CalibrationPair(f"n{i}", i / 10, False) for i in range(5)]
    )
    result = calibrate_conformal(tiny, 0.01)
    assert not result.feasible
    assert result.threshold == math.inf
    assert empirical_fpr(math.inf, tiny.nonmatch_scores) == 0.0


def test_calibration_set_split_is_deterministic():
    pairs = [
        CalibrationPair(f"p{i:03d}", i / 100, i % 3 == 0)
        for i in range(50)
    ]
    fit_a, hold_a = CalibrationSet(pairs).split(0.5, SPLIT_SEED)
    shuffled = list(pairs)
    random.Random(7).shuffle(shuffled)
    fit_b, hold_b = CalibrationSet(shuffled).split(0.5, SPLIT_SEED)
    assert [p.pair_id for p in fit_a.pairs] == [
        p.pair_id for p in fit_b.pairs
    ]
    assert fit_a.fingerprint() == fit_b.fingerprint()
    assert hold_a.fingerprint() == hold_b.fingerprint()
    # And the two halves partition the set.
    assert len(fit_a) + len(hold_a) == len(pairs)
    assert not {p.pair_id for p in fit_a.pairs} & {
        p.pair_id for p in hold_a.pairs
    }


def test_calibration_set_rejects_nan_scores():
    with pytest.raises(ValueError, match="NaN"):
        CalibrationPair("bad", math.nan, False)


def test_calibration_set_round_trips_exactly(tmp_path):
    rng = random.Random(17)
    original = CalibrationSet(
        [
            CalibrationPair(f"p{i}", rng.random(), rng.random() < 0.3)
            for i in range(40)
        ]
    )
    path = str(tmp_path / "calibration.json")
    original.save(path)
    loaded = CalibrationSet.load(path)
    assert loaded.fingerprint() == original.fingerprint()
    assert loaded.nonmatch_scores == original.nonmatch_scores
    assert loaded.match_scores == original.match_scores


def test_calibration_save_cut_before_replace_keeps_previous(
    tmp_path, monkeypatch
):
    """A save that dies before its atomic replace leaves the previous
    calibration set in place, loadable, and no temp file behind."""
    path = str(tmp_path / "calibration.json")
    previous = CalibrationSet(
        [CalibrationPair("a", 0.9, True), CalibrationPair("b", 0.2, False)]
    )
    previous.save(path)
    changed = CalibrationSet([CalibrationPair("c", 0.5, False)])

    def cut(source, destination):
        raise OSError("cut before replace")

    monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(OSError, match="cut before replace"):
        changed.save(path)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["calibration.json"]
    assert CalibrationSet.load(path).fingerprint() == previous.fingerprint()


# ----------------------------------------------------------------------
# Safety gates: trips are exact and force UNSURE
# ----------------------------------------------------------------------


def _gate_names(trips):
    return [trip.gate for trip in trips]


def test_gate_min_size_forces_unsure(flat_relation):
    tiny = CalibrationSet(
        [CalibrationPair(f"n{i}", 0.1 + i / 20, False) for i in range(8)]
        + [CalibrationPair("m0", 0.9, True)]
    )
    calibrated = calibrate(weighted_model(), tiny, target_fpr=0.05)
    assert calibrated.forced_unsure
    assert GATE_MIN_CALIBRATION_SIZE in _gate_names(calibrated.gate_trips)
    assert isinstance(calibrated.classifier, ForcedUnsureClassifier)
    result = DuplicateDetector(default_matcher(), calibrated).detect(
        flat_relation
    )
    assert result.decisions
    assert all(
        d.status is MatchStatus.POSSIBLE for d in result.decisions
    )
    assert result.matches == ()


def test_gate_degenerate_scores_trips():
    constant = CalibrationSet(
        [CalibrationPair(f"n{i}", 0.3, False) for i in range(40)]
        + [CalibrationPair(f"m{i}", 0.9, True) for i in range(10)]
    )
    calibration = calibrate_conformal(constant, 0.05)
    trips = check_safety_gates(constant, calibration)
    assert _gate_names(trips) == [GATE_DEGENERATE_SCORES]
    trip = trips[0]
    assert trip.observed == 0.0
    assert trip.limit == SafetyGates().min_score_spread


def test_gate_infeasible_trips_with_size():
    tiny = CalibrationSet(
        [CalibrationPair(f"n{i}", i / 10, False) for i in range(5)]
    )
    calibration = calibrate_conformal(tiny, 0.01)
    trips = check_safety_gates(tiny, calibration)
    assert GATE_MIN_CALIBRATION_SIZE in _gate_names(trips)
    assert GATE_INFEASIBLE in _gate_names(trips)


def _drift_set() -> CalibrationSet:
    """A set whose seeded holdout half scores far above the fit half.

    Membership only depends on the sorted pair ids and the gate seed,
    so scores can be assigned by half: re-calibrating on the fit half
    yields a low threshold that the holdout then blows through.
    """
    ids = [f"n{i:02d}" for i in range(60)] + [f"m{i}" for i in range(10)]
    order = sorted(ids)
    random.Random(SPLIT_SEED).shuffle(order)
    cut = int(round(len(order) * 0.5))
    holdout_ids = set(order[:cut])
    pairs = []
    for i in range(60):
        pair_id = f"n{i:02d}"
        base = 0.8 if pair_id in holdout_ids else 0.1
        pairs.append(CalibrationPair(pair_id, base + i * 1e-3, False))
    pairs += [CalibrationPair(f"m{i}", 0.95, True) for i in range(10)]
    return CalibrationSet(pairs)


def test_gate_drift_trips_on_shifted_holdout():
    drifted = _drift_set()
    calibration = calibrate_conformal(drifted, 0.05)
    assert calibration.feasible
    trips = check_safety_gates(drifted, calibration)
    assert _gate_names(trips) == [GATE_MAX_FPR_DRIFT]
    assert trips[0].observed > trips[0].limit
    calibrated = calibrate(weighted_model(), drifted, target_fpr=0.05)
    assert calibrated.forced_unsure


def test_gate_drift_check_can_be_disabled():
    drifted = _drift_set()
    gates = SafetyGates(max_fpr_drift=None)
    calibration = calibrate_conformal(drifted, 0.05)
    assert check_safety_gates(drifted, calibration, gates=gates) == ()


def test_gates_false_skips_all_checks():
    tiny = CalibrationSet(
        [CalibrationPair(f"n{i}", i / 10, False) for i in range(5)]
        + [CalibrationPair("m0", 0.99, True)]
    )
    calibrated = calibrate(
        weighted_model(), tiny, method="np", target_fpr=0.2, gates=False
    )
    assert not calibrated.forced_unsure
    assert type(calibrated.classifier) is ThresholdClassifier


def test_gate_policy_validation():
    with pytest.raises(ValueError, match="min_calibration_size"):
        SafetyGates(min_calibration_size=0)
    with pytest.raises(ValueError, match="max_fpr_drift"):
        SafetyGates(max_fpr_drift=-0.1)
    with pytest.raises(ValueError, match="holdout_fraction"):
        SafetyGates(holdout_fraction=1.0)


def test_calibrate_validates_method_and_alpha():
    ok = CalibrationSet(
        [CalibrationPair(f"n{i}", i / 100, False) for i in range(60)]
    )
    with pytest.raises(ValueError, match="method"):
        calibrate(weighted_model(), ok, method="bayes")
    with pytest.raises(ValueError, match="alpha"):
        calibrate(weighted_model(), ok, method="np", alpha=0.05)


# ----------------------------------------------------------------------
# Reason codes: total, consistent, and named
# ----------------------------------------------------------------------


@given(
    similarity=st.floats(allow_nan=True, allow_infinity=True),
    t_mu=st.floats(0.0, 1.0),
    band=st.floats(0.0, 0.5),
)
@settings(max_examples=200, deadline=None)
def test_reason_category_always_matches_classifier(similarity, t_mu, band):
    """Totality + consistency: one category, agreeing with classify()."""
    classifier = ThresholdClassifier(t_mu, max(t_mu - band, 0.0))
    code = categorize_decision(similarity, classifier)
    assert code.category.status is classifier.classify(similarity)
    assert isinstance(code.code, str) and code.code


def test_reason_gate_forced_names_the_gates():
    trips = check_safety_gates(
        CalibrationSet(
            [CalibrationPair("n0", 0.5, False)]
        ),
        calibrate_conformal(
            CalibrationSet([CalibrationPair("n0", 0.5, False)]), 0.05
        ),
    )
    classifier = ForcedUnsureClassifier(0.9, 0.5, trips)
    code = categorize_decision(0.99, classifier)
    assert code.category is ReasonCategory.GATE_FORCED
    assert code.category.status is MatchStatus.POSSIBLE
    assert set(code.gates) == set(_gate_names(trips))
    assert code.code.startswith("gate_forced:")


def test_reason_terms_name_the_forcing_rule():
    model = rules_model()
    classifier = model.classifier
    above = categorize_decision(0.9, classifier, model=model)
    assert above.category is ReasonCategory.ABOVE_MATCH
    assert above.term == "exact-name"
    assert above.code == "above_match:exact-name"
    other = categorize_decision(0.8, classifier, model=model)
    assert other.term == "both"
    # Similarities no rule produced have no nameable term.
    assert categorize_decision(0.93, classifier, model=model).term is None
    # The possible band never names a term (nothing was decisive).
    inside = categorize_decision(0.6, classifier, model=model)
    assert inside.category is ReasonCategory.POSSIBLE_BAND
    assert inside.term is None
    assert inside.margin >= 0.0


def test_reason_margins_are_signed_distances():
    classifier = ThresholdClassifier(0.75, 0.5)
    assert categorize_decision(0.8, classifier).margin == pytest.approx(
        0.05
    )
    assert categorize_decision(0.4, classifier).margin == pytest.approx(
        -0.1
    )
    nan_code = categorize_decision(math.nan, classifier)
    assert nan_code.category is ReasonCategory.POSSIBLE_BAND
    assert math.isnan(nan_code.margin)


def test_explain_is_total_over_a_detection(flat_relation):
    calibrated = _pinned_calibrated()
    result = DuplicateDetector(default_matcher(), calibrated).detect(
        flat_relation
    )
    reasons = calibrated.explain(result)
    assert len(reasons) == len(result.decisions)
    for row in reasons:
        assert row.reason.category.status is row.status
        document = row.as_dict()
        json.dumps(document)  # JSON-serializable end to end
        assert document["reason"]["code"]


# ----------------------------------------------------------------------
# Golden pinning: calibrated wrapper == unwrapped model, bitwise
# ----------------------------------------------------------------------


def _pinned_set() -> CalibrationSet:
    """An NP calibration set whose threshold is *exactly* 0.75.

    The largest non-match score is 0.75 by construction, and the 0.02
    target allows zero exceedances on 40 scores — so the NP threshold
    is the maximum itself, coinciding with ``rules_model``'s ``T_μ``.
    """
    pairs = [
        CalibrationPair(f"n{i:02d}", 0.75 - 0.005 * i, False)
        for i in range(1, 40)
    ]
    pairs.append(CalibrationPair("n40", 0.75, False))
    pairs += [
        CalibrationPair(f"m{i}", 0.8 + 0.004 * i, True) for i in range(12)
    ]
    return CalibrationSet(pairs)


def _pinned_calibrated() -> CalibratedModel:
    return calibrate(
        rules_model(), _pinned_set(), method="np", target_fpr=0.02
    )


def test_calibrated_model_pins_to_unwrapped_bitwise(flat_relation):
    calibrated = _pinned_calibrated()
    assert not calibrated.forced_unsure
    assert type(calibrated.classifier) is ThresholdClassifier
    assert calibrated.classifier.match_threshold == 0.75
    assert calibrated.classifier.unmatch_threshold == 0.5

    reference = DuplicateDetector(default_matcher(), rules_model())
    wrapped = DuplicateDetector(default_matcher(), calibrated)
    exact = reference.detect(flat_relation)
    pruned = wrapped.detect(flat_relation, min_similarity="auto")
    assert _triples(pruned) == _triples(exact)
    assert pruned.compared_pairs == exact.compared_pairs


def test_calibrated_model_forwards_attribute_floors():
    inner = rules_model()
    calibrated = CalibratedModel(
        inner, calibrate_np(_pinned_set(), 0.02)
    )
    floors = calibrated.attribute_floors()
    reference = inner.attribute_floors()
    assert floors is not None
    assert floors.per_attribute == reference.per_attribute
    assert floors.default == reference.default
    # A floor-less inner model keeps pruning off rather than faking one.
    bare = CalibratedModel(object(), calibrate_np(_pinned_set(), 0.02))
    assert bare.attribute_floors() is None


def test_calibrated_model_defaults_unmatch_threshold_safely():
    """T_λ is clamped to the calibrated T_μ; no invalid classifier."""
    low = CalibrationSet(
        [
            CalibrationPair(f"n{i:02d}", 0.05 + 0.002 * i, False)
            for i in range(40)
        ]
    )
    calibrated = calibrate(
        weighted_model(0.9, 0.78),
        low,
        method="np",
        target_fpr=0.02,
        gates=False,
    )
    t_mu = calibrated.classifier.match_threshold
    assert t_mu < 0.78
    assert calibrated.classifier.unmatch_threshold == t_mu


# ----------------------------------------------------------------------
# Audit manifests
# ----------------------------------------------------------------------


def _audited_detector():
    return DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=SortedNeighborhood(SORT_KEY, window=5),
    )


def test_manifest_round_trip_and_tamper_detection(
    flat_relation, tmp_path
):
    path = str(tmp_path / "manifest.json")
    detector = _audited_detector()
    detector.detect(flat_relation, audit=path)
    built = detector.last_manifest
    assert built is not None

    loaded = load_manifest(path)
    assert loaded.verify_integrity()
    assert loaded.verify_against(built)
    assert loaded.fingerprint() == built.fingerprint()

    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    document["payload"]["decided_pairs"] += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    with pytest.raises(ManifestIntegrityError, match="edited"):
        load_manifest(path)
    tampered = load_manifest(path, verify=False)
    assert not tampered.verify_integrity()
    assert "decided_pairs" in tampered.diff(built)


def test_manifest_write_cut_before_replace_keeps_previous(
    flat_relation, tmp_path, monkeypatch
):
    """A manifest write that dies before its atomic replace leaves the
    previous manifest in place, loadable and verified, and no temp
    file behind."""
    path = str(tmp_path / "manifest.json")
    detector = _audited_detector()
    detector.detect(flat_relation, audit=path)
    previous = detector.last_manifest
    changed = dataclasses.replace(
        previous, decided_pairs=previous.decided_pairs + 1
    )

    def cut(source, destination):
        raise OSError("cut before replace")

    monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(OSError, match="cut before replace"):
        changed.write(path)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == ["manifest.json"]
    loaded = load_manifest(path)
    assert loaded.verify_integrity()
    assert loaded.fingerprint() == previous.fingerprint()


def test_truncated_manifest_raises_integrity_error(flat_relation, tmp_path):
    """A torn manifest fails as ManifestIntegrityError, verified or
    not — never as a bare JSON error."""
    path = str(tmp_path / "manifest.json")
    _audited_detector().detect(flat_relation, audit=path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])
    with pytest.raises(ManifestIntegrityError, match="torn"):
        load_manifest(path)
    with pytest.raises(ManifestIntegrityError, match="torn"):
        load_manifest(path, verify=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[]")
    with pytest.raises(ManifestIntegrityError, match="corrupt"):
        load_manifest(path)


def test_manifest_stable_across_execution_variants(
    flat_relation, spilled_flat
):
    """The acceptance pin: execution never changes the fingerprint.

    In-memory at the default chunk size is the reference; packing at
    a small chunk size, the spilled out-of-core store at that chunk
    size, and a forced ``python`` kernel backend must all produce
    byte-identical manifest payloads.
    """
    serial = _audited_detector()
    serial.detect(flat_relation, audit=True)
    reference = serial.last_manifest

    variants = {}
    packed = _audited_detector()
    packed.detect(flat_relation, audit=True, chunk_size=7)
    variants["packed"] = packed.last_manifest

    spilled = _audited_detector()
    spilled.detect(
        open_store(spilled_flat, page_size=4, max_pages=3),
        audit=True,
        chunk_size=7,
    )
    variants["spilled packed"] = spilled.last_manifest

    python_backend = _audited_detector()
    python_backend.detect(
        flat_relation, audit=True, kernel_backend="python"
    )
    variants["python backend"] = python_backend.last_manifest

    for name, manifest in variants.items():
        assert manifest.payload_bytes() == reference.payload_bytes(), name
        assert manifest.fingerprint() == reference.fingerprint(), name
        assert manifest.verify_against(reference), name
    # The environment still records how each run executed …
    assert variants["spilled packed"].environment["storage"] != (
        reference.environment["storage"]
    )
    assert variants["python backend"].environment["kernel_backend"] == (
        "python"
    )
    # … without ever entering the fingerprint.
    assert "environment" not in reference.payload()


def test_manifest_distinguishes_different_runs(flat_relation):
    reference = _audited_detector()
    reference.detect(flat_relation, audit=True)
    other_data = generate_dataset(
        DatasetConfig(entity_count=20, seed=92), flat=True
    ).relation
    changed = _audited_detector()
    changed.detect(other_data, audit=True)
    assert changed.last_manifest.fingerprint() != (
        reference.last_manifest.fingerprint()
    )
    assert changed.last_manifest.diff(reference.last_manifest)


def test_manifest_records_calibration_and_floors(flat_relation):
    calibrated = _pinned_calibrated()
    detector = DuplicateDetector(default_matcher(), calibrated)
    detector.detect(flat_relation, audit=True, min_similarity="auto")
    manifest = detector.last_manifest
    entry = manifest.calibration
    assert entry["method"] == "np"
    assert entry["set_fingerprint"] == _pinned_set().fingerprint()
    assert entry["match_threshold"] == 0.75
    assert entry["wraps"] == "RuleBasedModel"
    assert entry["gate_trips"] == []
    assert manifest.thresholds["forced_unsure"] is False
    assert manifest.floors is not None
    assert manifest.floors["per_attribute"]
    totals = manifest.status_totals
    assert manifest.decided_pairs == sum(totals.values())


def test_manifest_records_gate_forced_runs(flat_relation):
    calibrated = calibrate(
        weighted_model(), _drift_set(), target_fpr=0.05
    )
    assert calibrated.forced_unsure
    detector = DuplicateDetector(default_matcher(), calibrated)
    detector.detect(flat_relation, audit=True)
    manifest = detector.last_manifest
    assert manifest.thresholds["forced_unsure"] is True
    trips = manifest.calibration["gate_trips"]
    assert [trip["gate"] for trip in trips] == [GATE_MAX_FPR_DRIFT]
    assert manifest.status_totals["m"] == 0
    assert manifest.status_totals["u"] == 0
    assert manifest.status_totals["p"] == manifest.decided_pairs


def test_manifest_rejects_streamed_runs(flat_relation):
    detector = _audited_detector()
    with pytest.raises(ValueError, match="audit"):
        detector.detect(flat_relation, audit=True, stream=True)


# ----------------------------------------------------------------------
# Chaos: deterministic gates and manifests under injected faults
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_dataset():
    return generate_dataset(
        DatasetConfig(entity_count=40, seed=7), flat=True
    )


def _chaos_detector():
    return DuplicateDetector(
        default_matcher(),
        weighted_model(),
        reducer=CertainKeyBlocking(BLOCK_KEY),
    )


def _skipping_run(relation, *, audit=False):
    detector = _chaos_detector()
    plan = detector.plan(relation)
    pair = FaultInjector(7).pick_pair(plan)
    with installed(crash_on(pair, attempts=(1, 2, 3))):
        result = detector.detect(
            relation,
            chunk_size=16,
            retry=RetryPolicy(max_attempts=2),
            on_error="skip",
            audit=audit,
        )
    return detector, result


def test_gate_trips_deterministic_under_injected_faults(chaos_dataset):
    """Same seed → same skipped partitions → same shrunken set → same
    trips: the chaos job's contract for the calibration layer."""
    relation = chaos_dataset.relation
    truth = chaos_dataset.true_matches
    clean = CalibrationSet.from_result(
        _chaos_detector().detect(relation), truth
    )
    _, first_result = _skipping_run(relation)
    _, second_result = _skipping_run(relation)
    first = CalibrationSet.from_result(first_result, truth)
    second = CalibrationSet.from_result(second_result, truth)
    assert first.fingerprint() == second.fingerprint()
    assert len(first.nonmatch_scores) < len(clean.nonmatch_scores)

    # A gate sized to the clean run trips on the faulted set — on both
    # runs, with identical trip records — and not on the clean set.
    gates = SafetyGates(
        min_calibration_size=len(clean.nonmatch_scores),
        max_fpr_drift=None,
    )
    trip_sets = []
    for shrunken in (first, second):
        calibrated = calibrate(
            weighted_model(), shrunken, target_fpr=0.05, gates=gates
        )
        assert calibrated.forced_unsure
        assert _gate_names(calibrated.gate_trips) == [
            GATE_MIN_CALIBRATION_SIZE
        ]
        trip_sets.append(calibrated.gate_trips)
    assert trip_sets[0] == trip_sets[1]
    intact = calibrate(
        weighted_model(), clean, target_fpr=0.05, gates=gates
    )
    assert not intact.forced_unsure


def test_manifest_records_skipped_partitions(chaos_dataset):
    relation = chaos_dataset.relation
    detector, _ = _skipping_run(relation, audit=True)
    manifest = detector.last_manifest
    failed = sorted(
        failure.partition for failure in detector.last_report.failures
    )
    assert failed
    assert list(manifest.failures) == failed
    for label in failed:
        assert label not in manifest.partition_counts
    # And the failure set is part of the fingerprinted payload: a
    # faulted run never masquerades as the clean one.
    clean_detector = _chaos_detector()
    clean_detector.detect(relation, audit=True)
    assert manifest.fingerprint() != (
        clean_detector.last_manifest.fingerprint()
    )


# ----------------------------------------------------------------------
# Sessions: calibration + incremental detection + audit
# ----------------------------------------------------------------------


def _split_scenario(relation):
    rows = list(relation)
    keep = max(1, len(rows) // 6)
    base_rows, tail = rows[: len(rows) - keep], rows[len(rows) - keep :]
    adds = [
        XTuple(f"delta-{i}", xt.alternatives)
        for i, xt in enumerate(tail)
    ]
    modify = XTuple(base_rows[0].tuple_id, base_rows[-1].alternatives)
    deletes = [base_rows[1].tuple_id]
    base = XRelation(
        f"{relation.name}-base", relation.schema.attributes, base_rows
    )
    return base, [modify] + adds, deletes


def _materialized_union(base, upserts, deletes):
    upsert_map = {xt.tuple_id: xt for xt in upserts}
    deleted = set(deletes)
    rows = []
    for xt in base:
        if xt.tuple_id in deleted:
            continue
        rows.append(upsert_map.pop(xt.tuple_id, xt))
    rows.extend(xt for xt in upserts if xt.tuple_id in upsert_map)
    return XRelation(
        f"{base.name}+delta", base.schema.attributes, rows
    )


def test_session_ingest_with_calibrated_model_matches_scratch(
    flat_relation,
):
    base, upserts, deletes = _split_scenario(flat_relation)
    session = DuplicateDetector(
        default_matcher(), _pinned_calibrated()
    ).session(base)
    initial = session.detect()
    scratch_base = DuplicateDetector(
        default_matcher(), _pinned_calibrated()
    ).detect(base)
    assert _triples(initial) == _triples(scratch_base)

    result = session.ingest(upserts, deletes=deletes)
    union = _materialized_union(base, upserts, deletes)
    scratch = DuplicateDetector(
        default_matcher(), _pinned_calibrated()
    ).detect(union)
    assert _triples(result) == _triples(scratch)
    assert session.stats.gate_trips == 0


def test_session_gate_trips_surface_in_stats(flat_relation):
    gated = calibrate(weighted_model(), _drift_set(), target_fpr=0.05)
    session = DuplicateDetector(default_matcher(), gated).session(
        flat_relation
    )
    result = session.detect()
    assert all(
        d.status is MatchStatus.POSSIBLE for d in result.decisions
    )
    assert session.gate_trips
    assert session.stats.gate_trips == len(session.gate_trips)
    assert "gate trips" in session.stats.summary()


def test_session_manifest_matches_detect_manifest(
    flat_relation, tmp_path
):
    base, upserts, deletes = _split_scenario(flat_relation)
    audit_dir = tmp_path / "audit"
    session = DuplicateDetector(
        default_matcher(), weighted_model()
    ).session(base, audit=str(audit_dir))
    session.detect()
    session.ingest(upserts, deletes=deletes)
    assert len(session.manifests) == 2

    from_scratch_base = DuplicateDetector(
        default_matcher(), weighted_model()
    )
    from_scratch_base.detect(base, audit=True)
    assert session.manifests[0].verify_against(
        from_scratch_base.last_manifest
    )

    union = _materialized_union(base, upserts, deletes)
    from_scratch_union = DuplicateDetector(
        default_matcher(), weighted_model()
    )
    from_scratch_union.detect(union, audit=True)
    assert session.manifests[1].verify_against(
        from_scratch_union.last_manifest
    )

    written = sorted(audit_dir.glob("manifest-*.json"))
    assert len(written) == 2
    for path, manifest in zip(written, session.manifests):
        loaded = load_manifest(path)
        assert loaded.verify_against(manifest)


# ----------------------------------------------------------------------
# The CLI front end and the E3 study
# ----------------------------------------------------------------------


def _production_calibration_set(flat_dataset) -> CalibrationSet:
    result = DuplicateDetector(
        default_matcher(), weighted_model()
    ).detect(flat_dataset.relation)
    return CalibrationSet.from_result(
        result, flat_dataset.true_matches
    )


def test_cli_detect_with_calibration_and_audit(
    flat_dataset, tmp_path, capsys
):
    base = str(tmp_path / "base.json")
    pdb_io.dump(flat_dataset.relation, base)
    calibration_file = str(tmp_path / "calibration.json")
    _production_calibration_set(flat_dataset).save(calibration_file)
    audit_dir = str(tmp_path / "audit")

    code = cli_main(
        [
            "detect",
            "--base",
            base,
            "--calibration",
            calibration_file,
            "--calibration-method",
            "conformal",
            "--target-fpr",
            "0.05",
            "--audit",
            audit_dir,
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out.strip())
    assert document["stats"]["gate_trips"] == 0
    assert "gate_trips" not in document  # no trips → no trip report
    manifest_files = sorted(
        (tmp_path / "audit").glob("manifest-*.json")
    )
    assert manifest_files
    manifest = load_manifest(manifest_files[-1])
    assert manifest.fingerprint() == document["manifest"]
    assert manifest.calibration["method"] == "conformal"


def test_cli_gate_trips_reported(flat_dataset, tmp_path, capsys):
    base = str(tmp_path / "base.json")
    pdb_io.dump(flat_dataset.relation, base)
    calibration_file = str(tmp_path / "tiny.json")
    CalibrationSet(
        [CalibrationPair(f"n{i}", i / 10, False) for i in range(5)]
    ).save(calibration_file)

    code = cli_main(
        ["detect", "--base", base, "--calibration", calibration_file]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out.strip())
    assert document["stats"]["gate_trips"] >= 1
    assert document["gate_trips"]
    assert any(
        GATE_MIN_CALIBRATION_SIZE in line
        for line in document["gate_trips"]
    )
    assert document["matches"] == []


def test_e3_calibration_study_rows():
    rows = run_e3_calibration(entity_count=60, seed=11)
    assert len(rows) == 6  # two methods × three targets
    for row in rows:
        assert row.feasible
        assert row.gate_trips == ()
        document = row.as_dict()
        assert set(document) >= {
            "method",
            "target_fpr",
            "threshold",
            "holdout_fpr",
        }
    by_method = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row)
    for method, method_rows in by_method.items():
        ordered = sorted(method_rows, key=lambda r: r.target_fpr)
        thresholds = [r.threshold for r in ordered]
        assert thresholds == sorted(thresholds, reverse=True), method
