"""Calibrated decision thresholds with finite-sample FPR guarantees.

The paper's decision models (Section III-D) classify the derived
similarity against expert-chosen thresholds ``T_λ``/``T_μ`` — but a
production deployment needs *guarantees*: "at most 1% of the pairs we
auto-merge are false positives".  This module turns a labeled
:class:`CalibrationSet` of scored pairs into such a threshold two ways:

* :func:`calibrate_conformal` — split-conformal calibration: ``T_μ`` is
  the ``⌈(n+1)(1-α)⌉``-th smallest non-match score, so for any new
  exchangeable non-match pair ``P(score > T_μ) ≤ α`` *at finite n*
  (the +1 is the finite-sample correction; an optional DKW tightening
  makes the bound hold with confidence ``1-alpha`` instead of merely in
  expectation).  This is the conformal counterpart of deciding by
  posterior match probability (Sadinle 2018's Bayesian partitioning —
  see PAPERS.md): both replace fixed thresholds with a data-derived
  quantile of the non-match score distribution.
* :func:`calibrate_np` — the empirical Neyman–Pearson rule: the
  *smallest* threshold whose empirical FPR on the calibration set is at
  most the target, i.e. maximum power subject to the size constraint.

Either produces a :class:`Calibration` that :func:`calibrate` wraps —
together with :mod:`gate <repro.matching.decision.gates>` checks —
into a :class:`CalibratedModel`: a drop-in
:class:`~repro.matching.decision.base.DecisionModel` around any
existing model that keeps the inner model's ``attribute_floors()``
alive (threshold pushdown still prunes), emits per-decision
:class:`~repro.matching.decision.reasons.ReasonCode`'s, and — when a
safety gate trips — forces every decision to UNSURE
(:attr:`~repro.matching.decision.base.MatchStatus.POSSIBLE`) instead
of silently deciding with an untrustworthy threshold.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.matching.comparison import ComparisonVector
from repro.matching.decision.base import (
    Decision,
    MatchStatus,
    ThresholdClassifier,
    model_similarities,
)
from repro.matching.decision.reasons import (
    DecisionReason,
    ReasonCode,
    categorize_decision,
)
from repro.pdb.io import write_text_atomic

#: Digest size (bytes) of calibration-set fingerprints.
_FINGERPRINT_BYTES = 16

#: Methods :func:`calibrate` accepts.
CALIBRATION_METHODS = ("conformal", "np")


@dataclass(frozen=True)
class CalibrationPair:
    """One labeled, scored pair of a calibration set.

    Attributes
    ----------
    pair_id:
        Stable identifier of the pair (``"t1|t4"`` for detection-derived
        sets) — part of the set's fingerprint, so two sets over the
        same pairs with the same scores fingerprint equal.
    score:
        The decision model's similarity for the pair, on whatever scale
        the model classifies (normalized certainty, matching weight …).
    is_match:
        Ground-truth label.
    """

    pair_id: str
    score: float
    is_match: bool

    def __post_init__(self) -> None:
        if math.isnan(self.score):
            raise ValueError(f"{self.pair_id}: score must not be NaN")


class CalibrationSet:
    """An immutable collection of labeled scored pairs.

    >>> pairs = [CalibrationPair("d", 0.9, True),
    ...          CalibrationPair("n", 0.1, False)]
    >>> cal = CalibrationSet(pairs)
    >>> (len(cal), cal.match_scores, cal.nonmatch_scores)
    (2, (0.9,), (0.1,))
    """

    def __init__(self, pairs: Iterable[CalibrationPair]) -> None:
        normalized = []
        for pair in pairs:
            if not isinstance(pair, CalibrationPair):
                pair_id, score, is_match = pair
                pair = CalibrationPair(
                    str(pair_id), float(score), bool(is_match)
                )
            normalized.append(pair)
        self._pairs = tuple(normalized)
        self._match_scores = tuple(
            sorted(p.score for p in self._pairs if p.is_match)
        )
        self._nonmatch_scores = tuple(
            sorted(p.score for p in self._pairs if not p.is_match)
        )

    @property
    def pairs(self) -> tuple[CalibrationPair, ...]:
        """The labeled pairs, in construction order."""
        return self._pairs

    @property
    def match_scores(self) -> tuple[float, ...]:
        """Scores of the true matches, ascending."""
        return self._match_scores

    @property
    def nonmatch_scores(self) -> tuple[float, ...]:
        """Scores of the true non-matches, ascending."""
        return self._nonmatch_scores

    def __len__(self) -> int:
        return len(self._pairs)

    def fingerprint(self) -> str:
        """Content fingerprint: equal iff pairs, scores and labels are.

        Pairs are sorted before hashing, so two sets over the same
        labeled pairs fingerprint equal regardless of construction
        order; JSON serializes floats shortest-round-trip, so the
        fingerprint is exact in the scores.
        """
        rows = sorted(
            [p.pair_id, p.score, p.is_match] for p in self._pairs
        )
        document = json.dumps(
            rows, sort_keys=True, separators=(",", ":")
        )
        return hashlib.blake2b(
            document.encode("utf-8"), digest_size=_FINGERPRINT_BYTES
        ).hexdigest()

    def split(
        self, holdout_fraction: float, seed: int
    ) -> tuple["CalibrationSet", "CalibrationSet"]:
        """Deterministic (fit, holdout) split by seeded shuffle."""
        import random

        if not 0.0 < holdout_fraction < 1.0:
            raise ValueError(
                f"holdout_fraction outside (0, 1): {holdout_fraction}"
            )
        order = sorted(self._pairs, key=lambda p: p.pair_id)
        random.Random(seed).shuffle(order)
        cut = int(round(len(order) * holdout_fraction))
        return CalibrationSet(order[cut:]), CalibrationSet(order[:cut])

    @classmethod
    def from_result(
        cls, result, true_matches: Iterable[tuple[str, str]]
    ) -> "CalibrationSet":
        """Label a detection run's decisions against known truth.

        The production calibration loop: detect over a labeled corpus,
        harvest every decision's derived similarity as a score, label
        it by truth membership.  Pairs are normalized ``left <= right``
        to match the verification layer's convention.
        """
        truth = {tuple(sorted(pair)) for pair in true_matches}
        pairs = []
        for decision in result.decisions:
            key = tuple(sorted((decision.left_id, decision.right_id)))
            pairs.append(
                CalibrationPair(
                    "|".join(key), decision.similarity, key in truth
                )
            )
        return cls(pairs)

    # ------------------------------------------------------------------
    # Persistence (the CLI's --calibration file format)
    # ------------------------------------------------------------------

    def to_document(self) -> dict:
        """JSON-serializable form (exact float round-trip)."""
        return {
            "pairs": [
                [p.pair_id, p.score, p.is_match] for p in self._pairs
            ]
        }

    @classmethod
    def from_document(cls, document: dict) -> "CalibrationSet":
        return cls(
            CalibrationPair(str(pair_id), float(score), bool(is_match))
            for pair_id, score, is_match in document.get("pairs", ())
        )

    def save(self, path: str) -> None:
        """Write the set to *path*, replacing the file whole
        (:func:`repro.pdb.io.write_text_atomic`): a crash mid-write
        leaves the previous calibration set in place."""
        write_text_atomic(
            path, json.dumps(self.to_document(), separators=(",", ":"))
        )

    @classmethod
    def load(cls, path: str) -> "CalibrationSet":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_document(json.load(handle))

    def __repr__(self) -> str:
        return (
            f"CalibrationSet({len(self._match_scores)} matches, "
            f"{len(self._nonmatch_scores)} non-matches)"
        )


def empirical_fpr(
    threshold: float, nonmatch_scores: Sequence[float]
) -> float:
    """Fraction of non-match scores a ``score > threshold`` rule accepts.

    Strict ``>`` mirrors :class:`ThresholdClassifier`'s reading of
    ``T_μ``, so this is exactly the false-positive rate the calibrated
    classifier would realize on these scores.
    """
    scores = sorted(nonmatch_scores)
    if not scores:
        return 0.0
    return (len(scores) - bisect_right(scores, threshold)) / len(scores)


@dataclass(frozen=True)
class Calibration:
    """One resolved threshold calibration, ready to wrap a model.

    Attributes
    ----------
    method:
        ``"conformal"`` or ``"np"``.
    threshold:
        The calibrated ``T_μ`` (``+inf`` when infeasible: nothing is
        ever auto-matched).
    target_fpr:
        The FPR target the threshold was calibrated for.
    alpha:
        Confidence level of the conformal DKW tightening (``None`` for
        the plain marginal guarantee, and for NP calibration).
    n_match / n_nonmatch:
        Calibration-set class sizes.
    feasible:
        Whether the calibration set was large enough to certify the
        target at all (``⌈(n+1)(1-α)⌉ ≤ n`` for conformal).
    calibration_fpr:
        Empirical FPR of the threshold on the calibration set itself.
    set_fingerprint:
        Fingerprint of the calibration inputs — recorded in audit
        manifests so a run's thresholds are traceable to their data.
    """

    method: str
    threshold: float
    target_fpr: float
    alpha: float | None
    n_match: int
    n_nonmatch: int
    feasible: bool
    calibration_fpr: float
    set_fingerprint: str

    def audit_entry(self) -> dict:
        """JSON-serializable record for the audit manifest."""
        return {
            "method": self.method,
            "threshold": self.threshold,
            "target_fpr": self.target_fpr,
            "alpha": self.alpha,
            "n_match": self.n_match,
            "n_nonmatch": self.n_nonmatch,
            "feasible": self.feasible,
            "calibration_fpr": self.calibration_fpr,
            "set_fingerprint": self.set_fingerprint,
        }


def _validate_target(target_fpr: float) -> float:
    target_fpr = float(target_fpr)
    if not 0.0 <= target_fpr <= 1.0:
        raise ValueError(f"target_fpr outside [0, 1]: {target_fpr}")
    return target_fpr


def calibrate_conformal(
    calibration: CalibrationSet,
    target_fpr: float,
    *,
    alpha: float | None = None,
) -> Calibration:
    """Split-conformal quantile threshold over non-match scores.

    With ``n`` calibration non-match scores and rank
    ``k = ⌈(n+1)(1-target_fpr)⌉``, the ``k``-th smallest score is a
    threshold whose exceedance probability for a new exchangeable
    non-match is at most ``target_fpr`` — the ``n+1`` is the
    finite-sample correction that makes the guarantee exact rather
    than asymptotic.  Passing ``alpha`` additionally inflates the
    quantile level by the one-sided DKW margin
    ``sqrt(ln(1/alpha) / 2n)`` so the realized FPR stays below the
    target with probability at least ``1 - alpha`` over the draw of
    the calibration set (not merely in expectation).

    ``k > n`` means the set is too small to certify the target; the
    calibration comes back infeasible with threshold ``+inf`` (nothing
    auto-matches) and :func:`check_safety_gates
    <repro.matching.decision.gates.check_safety_gates>` trips.

    >>> cal = CalibrationSet(
    ...     [CalibrationPair(f"n{i}", i / 100, False)
    ...      for i in range(99)]
    ... )
    >>> calibrate_conformal(cal, 0.1).threshold
    0.89
    """
    target_fpr = _validate_target(target_fpr)
    scores = calibration.nonmatch_scores
    n = len(scores)
    level = 1.0 - target_fpr
    if alpha is not None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha outside (0, 1): {alpha}")
        if n > 0:
            level += math.sqrt(math.log(1.0 / alpha) / (2.0 * n))
    rank = math.ceil((n + 1) * level)
    if n == 0 or rank > n:
        threshold, feasible = math.inf, False
    else:
        threshold, feasible = scores[max(rank, 1) - 1], True
    return Calibration(
        method="conformal",
        threshold=threshold,
        target_fpr=target_fpr,
        alpha=alpha,
        n_match=len(calibration.match_scores),
        n_nonmatch=n,
        feasible=feasible,
        calibration_fpr=empirical_fpr(threshold, scores),
        set_fingerprint=calibration.fingerprint(),
    )


def calibrate_np(
    calibration: CalibrationSet, target_fpr: float
) -> Calibration:
    """Empirical Neyman–Pearson threshold: maximum power at the target.

    The smallest threshold whose empirical FPR on the calibration
    non-match scores is at most *target_fpr* — with ``n`` scores and
    ``a = ⌊target_fpr · n⌋`` allowed exceedances, that is the
    ``(n-a)``-th smallest score (ties at the threshold do not exceed
    it, because classification is strict ``>``).  Monotone by
    construction: a stricter target never lowers the threshold.

    >>> cal = CalibrationSet(
    ...     [CalibrationPair(f"n{i}", i / 100, False)
    ...      for i in range(100)]
    ... )
    >>> calibrate_np(cal, 0.05).threshold
    0.94
    """
    target_fpr = _validate_target(target_fpr)
    scores = calibration.nonmatch_scores
    n = len(scores)
    if n == 0:
        threshold, feasible = math.inf, False
    else:
        allowed = math.floor(target_fpr * n)
        index = n - 1 - allowed
        if index < 0:
            # Every non-match may exceed: any threshold works, the
            # most powerful being "accept everything".
            threshold, feasible = -math.inf, True
        else:
            threshold, feasible = scores[index], True
    return Calibration(
        method="np",
        threshold=threshold,
        target_fpr=target_fpr,
        alpha=None,
        n_match=len(calibration.match_scores),
        n_nonmatch=n,
        feasible=feasible,
        calibration_fpr=empirical_fpr(threshold, scores),
        set_fingerprint=calibration.fingerprint(),
    )


class ForcedUnsureClassifier(ThresholdClassifier):
    """A classifier whose every answer is POSSIBLE (UNSURE).

    Installed by :class:`CalibratedModel` when a safety gate trips:
    thresholds are retained for introspection (margins in reason
    codes stay meaningful), but no pair is ever auto-matched or
    auto-rejected — everything goes to clerical review.
    """

    def __init__(
        self,
        match_threshold: float,
        unmatch_threshold: float | None,
        trips: tuple,
    ) -> None:
        super().__init__(match_threshold, unmatch_threshold)
        self.trips = tuple(trips)

    def classify(self, similarity: float) -> MatchStatus:
        return MatchStatus.POSSIBLE

    def __repr__(self) -> str:
        gates = ",".join(trip.gate for trip in self.trips)
        return (
            f"ForcedUnsureClassifier(T_mu={self.match_threshold:g}, "
            f"T_lambda={self.unmatch_threshold:g}, gates=[{gates}])"
        )


class CalibratedModel:
    """A decision model wrapped with a calibrated classifier.

    Step 1 of Figure 3 (the similarity φ) is the inner model's,
    untouched — which is why the inner model's pushdown floors remain
    *exactly* valid and are forwarded through
    :meth:`attribute_floors`.  Step 2 classifies against the
    calibrated ``T_μ`` (and the retained/supplied ``T_λ``); when any
    safety gate tripped at construction, step 2 is replaced by
    :class:`ForcedUnsureClassifier` and every decision comes back
    POSSIBLE.

    When the calibrated thresholds coincide with the inner model's
    and no gate tripped, the wrapper decides bitwise identically to
    the unwrapped model (pinned by ``tests/test_calibration.py``).
    """

    def __init__(
        self,
        model,
        calibration: Calibration,
        *,
        gate_trips: tuple = (),
        unmatch_threshold: float | None = None,
    ) -> None:
        self._model = model
        self.calibration = calibration
        self.gate_trips = tuple(gate_trips)
        t_mu = calibration.threshold
        if unmatch_threshold is None:
            inner = getattr(model, "classifier", None)
            t_lambda = (
                min(inner.unmatch_threshold, t_mu)
                if inner is not None
                else t_mu
            )
        else:
            t_lambda = float(unmatch_threshold)
        if self.gate_trips:
            self.classifier: ThresholdClassifier = ForcedUnsureClassifier(
                t_mu, t_lambda, self.gate_trips
            )
        else:
            self.classifier = ThresholdClassifier(t_mu, t_lambda)

    @property
    def model(self):
        """The wrapped decision model (φ provider)."""
        return self._model

    @property
    def forced_unsure(self) -> bool:
        """Whether a tripped gate forces every decision to POSSIBLE."""
        return bool(self.gate_trips)

    def similarity(self, vector: ComparisonVector) -> float:
        """φ(c⃗) — exactly the inner model's similarity."""
        return self._model.similarity(vector)

    def decide(self, vector: ComparisonVector) -> Decision:
        """Classify φ(c⃗) with the calibrated (or forcing) classifier."""
        return self.classifier.decide(self.similarity(vector))

    def similarity_batch(self, attributes, vectors):
        """φ of every row of a cells × attributes array — the inner
        model's (see :func:`~repro.matching.decision.base.model_similarities`)."""
        return model_similarities(self._model, attributes, vectors)

    def attribute_floors(self):
        """Forward the inner model's pushdown floors.

        Floors are φ-level invariance points and this wrapper never
        changes φ, only the thresholds it is classified against — so
        the inner floors remain exactly safe (and an inner model
        without floors keeps pruning off).
        """
        supplier = getattr(self._model, "attribute_floors", None)
        return supplier() if callable(supplier) else None

    # ------------------------------------------------------------------
    # Explanations
    # ------------------------------------------------------------------

    def reason(self, decision) -> ReasonCode:
        """The reason code of one decision (or raw similarity)."""
        similarity = getattr(decision, "similarity", decision)
        return categorize_decision(
            float(similarity), self.classifier, model=self._model
        )

    def explain(self, result) -> tuple[DecisionReason, ...]:
        """One :class:`DecisionReason` per decision of a result.

        Totality is guaranteed: every decision yields exactly one
        primary reason, whatever its similarity (±inf included).
        """
        rows = []
        for decision in result.decisions:
            rows.append(
                DecisionReason(
                    left_id=decision.left_id,
                    right_id=decision.right_id,
                    status=decision.status,
                    similarity=decision.similarity,
                    reason=self.reason(decision),
                )
            )
        return tuple(rows)

    def audit_entry(self) -> dict:
        """The manifest record tying a run to its calibration inputs."""
        entry = self.calibration.audit_entry()
        entry["wraps"] = type(self._model).__name__
        entry["match_threshold"] = self.classifier.match_threshold
        entry["unmatch_threshold"] = self.classifier.unmatch_threshold
        entry["gate_trips"] = [
            trip.as_dict() for trip in self.gate_trips
        ]
        return entry

    def __repr__(self) -> str:
        return (
            f"CalibratedModel({self._model!r}, "
            f"{self.calibration.method}@{self.calibration.target_fpr:g}, "
            f"{self.classifier!r})"
        )


def calibrate(
    model,
    calibration_set: CalibrationSet,
    *,
    method: str = "conformal",
    target_fpr: float = 0.05,
    alpha: float | None = None,
    gates=None,
    unmatch_threshold: float | None = None,
) -> CalibratedModel:
    """Calibrate *model*'s match threshold and wrap it, gates checked.

    The one-call entry point: resolves *method* into
    :func:`calibrate_conformal` / :func:`calibrate_np`, runs
    :func:`~repro.matching.decision.gates.check_safety_gates` (pass
    ``gates=None`` for the default gate policy, a configured
    :class:`~repro.matching.decision.gates.SafetyGates` to tune it, or
    ``gates=False`` to skip checking entirely — discouraged outside
    tests), and returns the wrapped model.
    """
    from repro.matching.decision.gates import SafetyGates, check_safety_gates

    if method not in CALIBRATION_METHODS:
        raise ValueError(
            f"unknown calibration method {method!r}; "
            f"expected one of {CALIBRATION_METHODS}"
        )
    if method == "conformal":
        calibration = calibrate_conformal(
            calibration_set, target_fpr, alpha=alpha
        )
    else:
        if alpha is not None:
            raise ValueError("alpha applies to conformal calibration only")
        calibration = calibrate_np(calibration_set, target_fpr)
    if gates is False:
        trips: tuple = ()
    else:
        if gates is None:
            gates = SafetyGates()
        trips = check_safety_gates(
            calibration_set, calibration, gates=gates
        )
    return CalibratedModel(
        model,
        calibration,
        gate_trips=trips,
        unmatch_threshold=unmatch_threshold,
    )


__all__ = [
    "CALIBRATION_METHODS",
    "Calibration",
    "CalibrationPair",
    "CalibrationSet",
    "CalibratedModel",
    "ForcedUnsureClassifier",
    "calibrate",
    "calibrate_conformal",
    "calibrate_np",
    "empirical_fpr",
]
