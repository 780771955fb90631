"""Derivation functions ϑ for x-tuple pairs (Section IV-B, Figure 6).

An x-tuple pair produces a ``k × l`` comparison matrix instead of a single
vector, so decision models must be adapted.  The paper defines two
procedures:

* **similarity-based derivation** (Figure 6, left): φ is applied to every
  alternative-pair vector, then ϑ : ℝ^{k×l} → ℝ maps the similarity
  matrix to one x-tuple similarity.  The paper's concrete ϑ is the
  *conditional expectation* (Equation 6)

  ``sim(t1, t2) = Σᵢ Σⱼ p(t1ⁱ)/p(t1) · p(t2ʲ)/p(t2) · sim(t1ⁱ, t2ʲ)``

  — the expected similarity over all possible worlds containing both
  tuples.  Suitable for knowledge-based (normalized) step-1 results; with
  non-normalized results the expectation "can become unrepresentative".

* **decision-based derivation** (Figure 6, right): every alternative pair
  is *classified* first (η(t1ⁱ, t2ʲ) ∈ {m, p, u}); ϑ then maps the
  matching-value matrix to a similarity.  The paper's concrete ϑ is the
  matching weight (Equations 7–9)

  ``sim(t1, t2) = P(m)/P(u)`` with
  ``P(m) = Σ_{(i,j) ∈ M} wᵢⱼ`` and ``P(u) = Σ_{(i,j) ∈ U} wᵢⱼ``

  where ``wᵢⱼ`` is the conditional world weight.  Suitable for
  probabilistic techniques.

* the **expected matching result** (the paper's closing suggestion):
  ``ϑ(η⃗) = E(η(t1ⁱ, t2ʲ) | B)`` with the coding m=2, p=1, u=0.

All derivations consume a :class:`DerivationInput` holding the per-pair
similarities *and* decisions plus the conditional weights, so the three
families share one call signature and further derivations can be plugged
in (the paper: "further adequate derivation functions are possible").
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.matching.decision.base import MatchStatus

#: Cell count below which the derivation functions use scalar loops:
#: typical comparison matrices are tiny (k, l ≤ 8) and array dispatch
#: costs more than it saves there, while the loop also preserves the
#: exact summation order of the original reference implementations.
_VECTOR_THRESHOLD = 64

#: Numeric coding of matching values (the paper's m=2, p=1, u=0).
_STATUS_CODES = {
    MatchStatus.MATCH: 2,
    MatchStatus.POSSIBLE: 1,
    MatchStatus.UNMATCH: 0,
}


@dataclass(frozen=True)
class DerivationInput:
    """Everything a derivation function ϑ may look at.

    The public fields stay plain tuples (hashable, picklable, printable —
    the explainability surface), while numpy views of the same matrices
    materialize lazily — and are cached on the instance — the first time
    a vectorized derivation function asks for them.

    Attributes
    ----------
    similarities:
        Row-major ``k × l`` matrix of alternative-pair similarities
        (step 1.1 results, ``s⃗(t1, t2)``).
    statuses:
        Row-major ``k × l`` matrix of alternative-pair matching values
        (step 1.2 results, ``η⃗(t1, t2)``); ``None`` when the procedure is
        similarity-based and no per-pair classification happened.
    weights:
        Row-major ``k × l`` matrix of conditional pair weights
        ``p(t1ⁱ)/p(t1) · p(t2ʲ)/p(t2)``; rows sum to the left conditional
        probabilities, the whole matrix sums to 1.
    """

    similarities: tuple[tuple[float, ...], ...]
    statuses: tuple[tuple[MatchStatus, ...], ...] | None
    weights: tuple[tuple[float, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        """``(k, l)``."""
        return (len(self.weights), len(self.weights[0]))

    @property
    def similarity_array(self) -> np.ndarray:
        """``(k, l)`` float array of the similarities, built once."""
        cached = getattr(self, "_sim_array", None)
        if cached is None:
            cached = np.asarray(self.similarities, dtype=np.float64)
            object.__setattr__(self, "_sim_array", cached)
        return cached

    @property
    def weight_array(self) -> np.ndarray:
        """``(k, l)`` float array of the conditional weights, built once."""
        cached = getattr(self, "_weight_array", None)
        if cached is None:
            cached = np.asarray(self.weights, dtype=np.float64)
            object.__setattr__(self, "_weight_array", cached)
        return cached

    @property
    def status_code_array(self) -> np.ndarray | None:
        """``(k, l)`` int array coding statuses m=2, p=1, u=0 (or None)."""
        if self.statuses is None:
            return None
        cached = getattr(self, "_status_codes", None)
        if cached is None:
            codes = _STATUS_CODES
            cached = np.asarray(
                [[codes[s] for s in row] for row in self.statuses],
                dtype=np.int8,
            )
            object.__setattr__(self, "_status_codes", cached)
        return cached

    def cells(self):
        """Iterate ``(i, j, similarity, status, weight)``."""
        for i, row in enumerate(self.weights):
            for j, weight in enumerate(row):
                status = (
                    self.statuses[i][j] if self.statuses is not None else None
                )
                yield i, j, self.similarities[i][j], status, weight


class DerivationBatch:
    """The :class:`DerivationInput` of many x-tuple pairs, as flat cells.

    Pair ``p`` owns the cells ``offsets[p]:offsets[p + 1]`` — its
    ``k × l`` matrix in row-major order, with ``shapes[p] == (k, l)``.
    Per cell: the step-1.1 similarity (:attr:`similarities`, the values
    as computed, and :attr:`similarity_array`, the same as float64),
    the step-1.2 status (:attr:`statuses`, or ``None``) and the
    conditional weight (:attr:`weight_array`).
    """

    __slots__ = (
        "similarities",
        "similarity_array",
        "statuses",
        "weight_array",
        "offsets",
        "shapes",
    )

    def __init__(
        self,
        similarities: Sequence,
        statuses: Sequence[MatchStatus] | None,
        weights: np.ndarray,
        offsets: np.ndarray,
        shapes: Sequence[tuple[int, int]],
    ) -> None:
        self.similarity_array = np.asarray(similarities, dtype=np.float64)
        self.similarities = (
            similarities.tolist()
            if isinstance(similarities, np.ndarray)
            else similarities
        )
        self.statuses = statuses
        self.weight_array = weights
        self.offsets = offsets
        self.shapes = shapes

    def __len__(self) -> int:
        return len(self.shapes)

    def input(self, pair: int) -> DerivationInput:
        """Pair *pair*'s :class:`DerivationInput`, as the scalar path builds it."""
        start = int(self.offsets[pair])
        rows, columns = self.shapes[pair]

        def matrix(cells, begin=start):
            return tuple(
                tuple(cells[begin + row * columns : begin + (row + 1) * columns])
                for row in range(rows)
            )

        return DerivationInput(
            similarities=matrix(self.similarities),
            statuses=(
                matrix(self.statuses) if self.statuses is not None else None
            ),
            weights=matrix(
                self.weight_array[start : start + rows * columns].tolist(), 0
            ),
        )


def derive_all(derivation, batch: DerivationBatch) -> list:
    """ϑ of every pair of *batch*, bitwise as the per-pair calls.

    The derivation's ``derive_batch`` when it has one; otherwise the
    default: the scalar call on each pair's :class:`DerivationInput`.
    """
    vectorized = getattr(derivation, "derive_batch", None)
    if vectorized is not None:
        return vectorized(batch)
    return [derivation(batch.input(pair)) for pair in range(len(batch))]


@runtime_checkable
class DerivationFunction(Protocol):
    """ϑ — maps the matrix information of an x-tuple pair to one degree."""

    #: Whether the procedure must classify alternative pairs first
    #: (decision-based, Figure 6 right) or not (similarity-based, left).
    requires_statuses: bool

    def __call__(self, data: DerivationInput) -> float:  # pragma: no cover
        ...


class ExpectedSimilarity:
    """Equation 6: conditional expectation of alternative similarities.

    The canonical similarity-based ϑ.  Probabilities are already
    conditioned (normalized w.r.t. the x-tuple probability) inside the
    weights, so this is exactly
    ``E(sim(t1ⁱ, t2ʲ) | B)`` — the expected value over all possible worlds
    containing both tuples.
    """

    requires_statuses = False

    def __call__(self, data: DerivationInput) -> float:
        weights = data.weights
        if len(weights) * len(weights[0]) <= _VECTOR_THRESHOLD:
            # Small matrices (flat pairs degenerate to 1×1) dominate many
            # workloads; scalar math beats array dispatch there and keeps
            # the row-major summation order of the reference loop.
            total = 0.0
            for weight_row, sim_row in zip(weights, data.similarities):
                for weight, similarity in zip(weight_row, sim_row):
                    total += weight * similarity
            return total
        return float(
            np.dot(data.weight_array.ravel(), data.similarity_array.ravel())
        )

    def derive_batch(self, batch: DerivationBatch) -> list[float]:
        """Equation 6 for every pair of *batch*.

        Pairs up to :data:`_VECTOR_THRESHOLD` cells add ``w · s`` cell
        by cell in row-major order, like the scalar loop, for all pairs
        at once; larger pairs take the scalar ``np.dot`` call.
        """
        offsets = batch.offsets
        counts = np.diff(offsets)
        starts = offsets[:-1]
        small = counts <= _VECTOR_THRESHOLD
        weights = batch.weight_array
        similarities = batch.similarity_array
        total = np.zeros(len(counts))
        for cell in range(int(counts[small].max(initial=0))):
            pairs = small & (counts > cell)
            cells = starts[pairs] + cell
            total[pairs] += weights[cells] * similarities[cells]
        results = total.tolist()
        for pair in np.flatnonzero(~small).tolist():
            results[pair] = self(batch.input(pair))
        return results

    def __repr__(self) -> str:
        return "ExpectedSimilarity()"


class MostProbableWorldSimilarity:
    """Similarity of the modal alternative pair (ablation baseline).

    Takes the similarity of the single most probable world containing
    both tuples — the similarity-based analogue of the certain-key
    reduction strategy (Section V-A.2).  Cheaper but blind to all other
    worlds; included for the ablation experiments.
    """

    requires_statuses = False

    def __call__(self, data: DerivationInput) -> float:
        weights = data.weights
        if len(weights) * len(weights[0]) <= _VECTOR_THRESHOLD:
            best_weight = -1.0
            best_similarity = 0.0
            for weight_row, sim_row in zip(weights, data.similarities):
                for weight, similarity in zip(weight_row, sim_row):
                    if weight > best_weight:
                        best_weight = weight
                        best_similarity = similarity
            return best_similarity
        flat_index = int(np.argmax(data.weight_array))
        return float(data.similarity_array.ravel()[flat_index])

    def __repr__(self) -> str:
        return "MostProbableWorldSimilarity()"


class MaximumSimilarity:
    """Optimistic ϑ: the best alternative-pair similarity.

    Corresponds to "the tuples match if *any* of their possible
    appearances match"; probability-blind, included for ablations.
    """

    requires_statuses = False

    def __call__(self, data: DerivationInput) -> float:
        similarities = data.similarities
        if len(similarities) * len(similarities[0]) <= _VECTOR_THRESHOLD:
            return max(value for row in similarities for value in row)
        return float(data.similarity_array.max())

    def __repr__(self) -> str:
        return "MaximumSimilarity()"


class MatchingWeight:
    """Equations 7–9: ``sim(t1, t2) = P(m) / P(u)``.

    The canonical decision-based ϑ.  ``P(m)`` aggregates the conditional
    world weights of alternative pairs classified as matches, ``P(u)``
    those classified as non-matches; possible matches contribute to
    neither.

    Edge cases (the paper leaves them open; we document our choices):

    * ``P(u) = 0`` and ``P(m) > 0`` — no world votes against:
      returns ``math.inf`` (an unconditional match for any threshold).
    * ``P(m) = P(u) = 0`` — every world is a possible match: returns 1.0,
      the neutral weight, which any classifier with ``T_λ ≤ 1 ≤ T_μ``
      assigns to the possible band.
    """

    requires_statuses = True

    def __call__(self, data: DerivationInput) -> float:
        if data.statuses is None:
            raise ValueError(
                "MatchingWeight is decision-based and needs statuses"
            )
        weights = data.weights
        if len(weights) * len(weights[0]) <= _VECTOR_THRESHOLD:
            p_match = 0.0
            p_unmatch = 0.0
            for weight_row, status_row in zip(weights, data.statuses):
                for weight, status in zip(weight_row, status_row):
                    if status is MatchStatus.MATCH:
                        p_match += weight
                    elif status is MatchStatus.UNMATCH:
                        p_unmatch += weight
        else:
            weight_array = data.weight_array
            codes = data.status_code_array
            p_match = float(weight_array[codes == 2].sum())
            p_unmatch = float(weight_array[codes == 0].sum())
        if p_unmatch <= 0.0:
            return math.inf if p_match > 0.0 else 1.0
        return p_match / p_unmatch

    def __repr__(self) -> str:
        return "MatchingWeight()"


class MatchProbability:
    """Normalized decision-based ϑ: just ``P(m)``.

    The overall probability of all possible worlds in which the tuples
    are determined to be a match — a normalized alternative to
    :class:`MatchingWeight`, convenient when downstream thresholds must
    live in [0, 1].
    """

    requires_statuses = True

    def __call__(self, data: DerivationInput) -> float:
        if data.statuses is None:
            raise ValueError(
                "MatchProbability is decision-based and needs statuses"
            )
        weights = data.weights
        if len(weights) * len(weights[0]) <= _VECTOR_THRESHOLD:
            return sum(
                weight
                for weight_row, status_row in zip(weights, data.statuses)
                for weight, status in zip(weight_row, status_row)
                if status is MatchStatus.MATCH
            )
        codes = data.status_code_array
        return float(data.weight_array[codes == 2].sum())

    def __repr__(self) -> str:
        return "MatchProbability()"


class ExpectedMatchingResult:
    """The paper's suggested further decision-based ϑ.

    ``ϑ(η⃗) = E(η(t1ⁱ, t2ʲ) | B)`` with matching results coded as
    ``{m = 2, p = 1, u = 0}``; the result lives in [0, 2] and thresholds
    must be chosen in that range (e.g. T_λ, T_μ around 1).
    """

    requires_statuses = True

    def __call__(self, data: DerivationInput) -> float:
        if data.statuses is None:
            raise ValueError(
                "ExpectedMatchingResult is decision-based and needs statuses"
            )
        weights = data.weights
        if len(weights) * len(weights[0]) <= _VECTOR_THRESHOLD:
            total = 0.0
            for weight_row, status_row in zip(weights, data.statuses):
                for weight, status in zip(weight_row, status_row):
                    total += weight * _STATUS_CODES[status]
            return total
        codes = data.status_code_array
        return float(
            np.dot(
                data.weight_array.ravel(),
                codes.ravel().astype(np.float64),
            )
        )

    def __repr__(self) -> str:
        return "ExpectedMatchingResult()"


def normalized_weights(
    left_probabilities: Sequence[float],
    right_probabilities: Sequence[float],
) -> tuple[tuple[float, ...], ...]:
    """Conditional pair-weight matrix from raw alternative probabilities.

    ``wᵢⱼ = p(t1ⁱ)/p(t1) · p(t2ʲ)/p(t2)`` — the paper's normalization
    "also known as conditioning or scaling" that removes tuple-membership
    uncertainty.  The matrix always sums to 1.
    """
    left_total = sum(left_probabilities)
    right_total = sum(right_probabilities)
    if left_total <= 0.0 or right_total <= 0.0:
        raise ValueError("alternative probabilities must have positive mass")
    return tuple(
        tuple(
            (lp / left_total) * (rp / right_total)
            for rp in right_probabilities
        )
        for lp in left_probabilities
    )


#: Registry of derivation functions by name.
DERIVATIONS = {
    "expected_similarity": ExpectedSimilarity,
    "most_probable_world": MostProbableWorldSimilarity,
    "maximum_similarity": MaximumSimilarity,
    "matching_weight": MatchingWeight,
    "match_probability": MatchProbability,
    "expected_matching_result": ExpectedMatchingResult,
}
