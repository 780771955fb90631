"""Decision-model fundamentals: match status, thresholds, protocol.

Section III-D: the comparison vector is input to a decision model that
assigns a tuple pair to matching tuples (M), unmatching tuples (U) or
possibly matching tuples (P); the result is the matching value
``η(t1, t2) ∈ {m, p, u}``.

Figure 3 decomposes every decision model into (1) a combination function
φ producing ``sim(t1, t2)`` and (2) a threshold classification into
{M, P, U}.  :class:`ThresholdClassifier` implements step 2 for both the
two-threshold case (T_λ < T_μ, Figure 2) and the single-threshold case
(knowledge-based techniques usually drop P).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.matching.comparison import ComparisonVector


class MatchStatus(enum.Enum):
    """The matching value η ∈ {m, p, u}."""

    MATCH = "m"
    POSSIBLE = "p"
    UNMATCH = "u"

    @property
    def numeric(self) -> int:
        """The paper's numeric coding for expected matching results.

        Section IV-B (last paragraph): "each matching result is considered
        as one of the following numbers {m = 2, p = 1, u = 0}".
        """
        return {"m": 2, "p": 1, "u": 0}[self.value]

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of deciding one tuple pair.

    Attributes
    ----------
    status:
        The matching value η(t1, t2).
    similarity:
        The similarity degree sim(t1, t2) that was classified.  May be
        non-normalized (matching weights) or even infinite (decision-based
        derivation with P(u) = 0).
    """

    status: MatchStatus
    similarity: float

    @property
    def is_match(self) -> bool:
        """Whether the pair was declared a duplicate."""
        return self.status is MatchStatus.MATCH

    @property
    def is_possible(self) -> bool:
        """Whether the pair needs clerical review."""
        return self.status is MatchStatus.POSSIBLE

    @property
    def is_unmatch(self) -> bool:
        """Whether the pair was declared distinct."""
        return self.status is MatchStatus.UNMATCH


class ThresholdClassifier:
    """Classify a similarity degree into {M, P, U} with one or two thresholds.

    Parameters
    ----------
    match_threshold:
        ``T_μ`` — similarities strictly above are matches.  (The paper
        uses ``R > T_μ``; we follow that strict reading and likewise
        ``R < T_λ`` for non-matches, so values exactly on a threshold are
        possible matches.)
    unmatch_threshold:
        ``T_λ`` — similarities strictly below are non-matches.  Pass
        ``None`` (or the same value as *match_threshold*) for a
        single-threshold classifier without a possible-match set.
    """

    def __init__(
        self,
        match_threshold: float,
        unmatch_threshold: float | None = None,
    ) -> None:
        if unmatch_threshold is None:
            unmatch_threshold = match_threshold
        if math.isnan(match_threshold) or math.isnan(unmatch_threshold):
            raise ValueError("thresholds must not be NaN")
        if unmatch_threshold > match_threshold:
            raise ValueError(
                f"T_λ={unmatch_threshold} must not exceed T_μ={match_threshold}"
            )
        self.match_threshold = float(match_threshold)
        self.unmatch_threshold = float(unmatch_threshold)

    @property
    def supports_possible(self) -> bool:
        """Whether a possible-match band exists (T_λ < T_μ)."""
        return self.unmatch_threshold < self.match_threshold

    def classify(self, similarity: float) -> MatchStatus:
        """η from sim: > T_μ ⇒ m, < T_λ ⇒ u, else p.

        With a single threshold the possible band collapses to the exact
        threshold value; values equal to it classify as possible, matching
        the paper's strict inequalities.
        """
        if similarity > self.match_threshold:
            return MatchStatus.MATCH
        if similarity < self.unmatch_threshold:
            return MatchStatus.UNMATCH
        return MatchStatus.POSSIBLE

    def decide(self, similarity: float) -> Decision:
        """Bundle :meth:`classify` with the classified value."""
        return Decision(self.classify(similarity), similarity)

    def classify_batch(
        self, similarities: Sequence[float] | np.ndarray
    ) -> list[MatchStatus]:
        """:meth:`classify` of every similarity, compared as one array.

        A subclass that overrides :meth:`classify` is looped instead,
        so its own rule decides.
        """
        if type(self).classify is not ThresholdClassifier.classify:
            return [self.classify(value) for value in similarities]
        values = np.asarray(similarities, dtype=np.float64)
        codes = np.where(
            values > self.match_threshold,
            0,
            np.where(values < self.unmatch_threshold, 2, 1),
        )
        return list(map(_BY_CODE.__getitem__, codes.tolist()))

    def __repr__(self) -> str:
        return (
            f"ThresholdClassifier(T_mu={self.match_threshold:g}, "
            f"T_lambda={self.unmatch_threshold:g})"
        )


#: Statuses by the codes :meth:`ThresholdClassifier.classify_batch` uses.
_BY_CODE = (MatchStatus.MATCH, MatchStatus.POSSIBLE, MatchStatus.UNMATCH)


@runtime_checkable
class DecisionModel(Protocol):
    """A complete decision model: comparison vector → decision.

    Implementations follow Figure 3: combination function plus threshold
    classification.  They expose their classifier so x-tuple derivations
    (Figure 6, right) can reuse the per-alternative thresholds.
    """

    classifier: ThresholdClassifier

    def similarity(
        self, vector: ComparisonVector
    ) -> float:  # pragma: no cover
        """Step 1: sim(t1, t2) = φ(c⃗)."""
        ...

    def decide(self, vector: ComparisonVector) -> Decision:  # pragma: no cover
        """Steps 1+2: classify the pair."""
        ...


class CombinedDecisionModel:
    """The generic Figure-3 decision model: φ then thresholds.

    Parameters
    ----------
    combination:
        The combination function φ (see :mod:`repro.matching.combination`).
    classifier:
        The threshold classifier for step 2.
    name:
        Optional label for reports.
    """

    def __init__(
        self,
        combination,
        classifier: ThresholdClassifier,
        *,
        name: str = "combined",
    ) -> None:
        self._combination = combination
        self.classifier = classifier
        self.name = name

    def similarity(self, vector: ComparisonVector) -> float:
        """sim(t1, t2) = φ(c⃗)."""
        return self._combination(vector)

    def decide(self, vector: ComparisonVector) -> Decision:
        """Classify the pair based on φ(c⃗)."""
        return self.classifier.decide(self.similarity(vector))

    def similarity_batch(self, attributes, vectors: np.ndarray):
        """φ of every row of a cells × attributes array.

        Uses the combination function's ``combine_batch`` when it has
        one, else calls φ row by row (see :func:`model_similarities`).
        """
        combine = getattr(self._combination, "combine_batch", None)
        if combine is not None:
            return combine(attributes, vectors)
        return _each_similarity(self._combination, attributes, vectors)

    def attribute_floors(self):
        """Pushdown floors, when the combination function is prunable.

        A combined model is only as invariant as its φ: a step-function
        combiner like
        :class:`~repro.matching.combination.LogLikelihoodRatio` exposes
        its own ``attribute_floors()`` and the model forwards them; a
        continuous combiner (``WeightedSum``, ``Average``, …) observes
        every similarity bit, so no floor is safe and the model returns
        ``None`` — the pipeline then keeps the exact path (see
        :func:`repro.matching.pushdown.derive_floors`).
        """
        supplier = getattr(self._combination, "attribute_floors", None)
        return supplier() if callable(supplier) else None

    def __repr__(self) -> str:
        return (
            f"CombinedDecisionModel({self.name!r}, {self._combination!r}, "
            f"{self.classifier!r})"
        )


def _each_similarity(similarity, attributes, vectors: np.ndarray) -> list:
    """``similarity(c⃗)`` for each row, as a :class:`ComparisonVector`."""
    attributes = tuple(attributes)
    trusted = ComparisonVector.trusted
    return [
        similarity(trusted(attributes, tuple(row)))
        for row in vectors.tolist()
    ]


def model_similarities(model, attributes, vectors: np.ndarray):
    """Step 1 (φ) of *model* for every row of a cells × attributes array.

    The model's ``similarity_batch`` when it has one; otherwise the
    default: its scalar :meth:`DecisionModel.similarity` on each row.
    Either way the values are bitwise what the per-pair procedure
    computes.
    """
    batch = getattr(model, "similarity_batch", None)
    if batch is not None:
        return batch(attributes, vectors)
    return _each_similarity(model.similarity, attributes, vectors)

