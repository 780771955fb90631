"""Combination functions φ : [0, 1]ⁿ → ℝ (Equation 3).

Step 1 of every decision model (Figure 3) collapses the comparison vector
into a single similarity degree ``sim(t1, t2) = φ(c⃗)``.  The paper notes
the result is *normalized* for knowledge-based techniques (a certainty
factor) and *non-normalized* for probabilistic ones (a matching weight).

Provided combination functions:

* :class:`WeightedSum` — the paper's running example
  ``φ(c⃗) = 0.8·c1 + 0.2·c2``; normalized when weights sum to 1.
* :class:`Average`, :class:`Minimum`, :class:`Maximum`, :class:`Product` —
  standard normalized monotone combiners.
* :class:`LogLikelihoodRatio` — the Fellegi–Sunter matching weight
  ``log2 m(c⃗)/u(c⃗)`` under per-attribute conditional independence
  (non-normalized; may be negative).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping, Sequence
from typing import Protocol, runtime_checkable

import numpy as np

from repro.matching.comparison import ComparisonVector
from repro.matching.pushdown import SimilarityFloors


@runtime_checkable
class CombinationFunction(Protocol):
    """φ: maps a comparison vector to a similarity degree.

    Implementations expose :attr:`normalized` so threshold classifiers
    can sanity-check their configuration.
    """

    normalized: bool

    def __call__(self, vector: ComparisonVector) -> float:  # pragma: no cover
        ...


def _weights_for(
    attributes: Sequence[str], weights: Mapping[str, float] | Sequence[float]
) -> list[float]:
    """Resolve a weight specification against a vector's attributes."""
    if isinstance(weights, Mapping):
        try:
            return [float(weights[attr]) for attr in attributes]
        except KeyError as missing:
            raise KeyError(
                f"no weight for attribute {missing.args[0]!r}"
            ) from None
    resolved = [float(w) for w in weights]
    if len(resolved) != len(attributes):
        raise ValueError(
            f"{len(resolved)} weights for a {len(attributes)}-ary vector"
        )
    return resolved


# The ``combine_batch(attributes, vectors)`` methods below evaluate φ
# for every row of a cells × attributes array at once, bitwise equal to
# the scalar call on each row: the same float operations in the same
# order, attribute by attribute (``min``/``max`` keep the first of
# equal values, sums follow :func:`_builtin_sum`).

#: Whether the builtin ``sum`` of floats compensates rounding (Neumaier
#: summation, CPython 3.12 and later) instead of adding left to right.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def _builtin_sum(columns: Sequence[np.ndarray]) -> np.ndarray:
    """``sum(row)`` for every row, bitwise as this interpreter's ``sum``.

    The builtin starts from the int 0 and, since CPython 3.12, keeps a
    Neumaier compensation term that it adds back at the end when it is
    non-zero and finite; both are replayed column by column.
    """
    total = 0.0 + columns[0]
    if not _COMPENSATED_SUM:
        for column in columns[1:]:
            total = total + column
        return total
    compensation = np.zeros_like(total)
    with np.errstate(invalid="ignore", over="ignore"):
        for column in columns[1:]:
            partial = total + column
            compensation += np.where(
                np.abs(total) >= np.abs(column),
                (total - partial) + column,
                (column - partial) + total,
            )
            total = partial
        return np.where(
            (compensation != 0.0) & np.isfinite(compensation),
            total + compensation,
            total,
        )


class WeightedSum:
    """``φ(c⃗) = Σ wᵢ·cᵢ`` — the paper's example combiner.

    Parameters
    ----------
    weights:
        Either a mapping from attribute name to weight or a sequence
        aligned with the comparison vector.  Weights must be non-negative
        and sum to a positive value.
    """

    def __init__(
        self, weights: Mapping[str, float] | Sequence[float]
    ) -> None:
        values = (
            list(weights.values())
            if isinstance(weights, Mapping)
            else [float(w) for w in weights]
        )
        if not values:
            raise ValueError("need at least one weight")
        if any(w < 0.0 for w in values):
            raise ValueError(f"weights must be non-negative: {values}")
        total = sum(values)
        if total <= 0.0:
            raise ValueError("weights must sum to a positive value")
        self._weights = weights
        #: Normalized iff the weights form a convex combination.
        self.normalized = abs(total - 1.0) <= 1e-9

    def __call__(self, vector: ComparisonVector) -> float:
        weights = _weights_for(vector.attributes, self._weights)
        return sum(w * c for w, c in zip(weights, vector.values))

    def combine_batch(
        self, attributes: Sequence[str], vectors: np.ndarray
    ) -> np.ndarray:
        """φ of every row of a cells × attributes array."""
        weights = _weights_for(attributes, self._weights)
        return _builtin_sum(
            [weight * vectors[:, column] for column, weight in enumerate(weights)]
        )

    def __repr__(self) -> str:
        return f"WeightedSum({self._weights!r})"


class Average:
    """Unweighted mean of the comparison vector (normalized)."""

    normalized = True

    def __call__(self, vector: ComparisonVector) -> float:
        return sum(vector.values) / len(vector)

    def combine_batch(
        self, attributes: Sequence[str], vectors: np.ndarray
    ) -> np.ndarray:
        """φ of every row of a cells × attributes array."""
        return _builtin_sum(vectors.T) / len(attributes)

    def __repr__(self) -> str:
        return "Average()"


class Minimum:
    """Most pessimistic attribute similarity (normalized)."""

    normalized = True

    def __call__(self, vector: ComparisonVector) -> float:
        return min(vector.values)

    def combine_batch(
        self, attributes: Sequence[str], vectors: np.ndarray
    ) -> np.ndarray:
        """φ of every row of a cells × attributes array."""
        best = vectors[:, 0].copy()
        for column in range(1, len(attributes)):
            values = vectors[:, column]
            best = np.where(values < best, values, best)
        return best

    def __repr__(self) -> str:
        return "Minimum()"


class Maximum:
    """Most optimistic attribute similarity (normalized)."""

    normalized = True

    def __call__(self, vector: ComparisonVector) -> float:
        return max(vector.values)

    def combine_batch(
        self, attributes: Sequence[str], vectors: np.ndarray
    ) -> np.ndarray:
        """φ of every row of a cells × attributes array."""
        best = vectors[:, 0].copy()
        for column in range(1, len(attributes)):
            values = vectors[:, column]
            best = np.where(values > best, values, best)
        return best

    def __repr__(self) -> str:
        return "Maximum()"


class Product:
    """Product of attribute similarities (normalized, conjunctive)."""

    normalized = True

    def __call__(self, vector: ComparisonVector) -> float:
        result = 1.0
        for value in vector.values:
            result *= value
        return result

    def __repr__(self) -> str:
        return "Product()"


class LogLikelihoodRatio:
    """Fellegi–Sunter matching weight under conditional independence.

    Each attribute *i* is reduced to an agreement bit
    ``γᵢ = [cᵢ ≥ agreement_threshold]``; the weight is

    ``φ(c⃗) = Σᵢ log2(mᵢ/uᵢ)`` over agreeing attributes plus
    ``Σᵢ log2((1-mᵢ)/(1-uᵢ))`` over disagreeing ones —

    the logarithm of ``R = m(c⃗)/u(c⃗)`` of Equations 1–2 when attribute
    agreements are independent given the match status.  Non-normalized:
    positive weights indicate match evidence, negative ones non-match
    evidence.

    Parameters
    ----------
    m_probabilities / u_probabilities:
        Per-attribute conditional agreement probabilities
        ``mᵢ = P(γᵢ=1 | M)`` and ``uᵢ = P(γᵢ=1 | U)``, each in (0, 1).
    agreement_threshold:
        Similarity level from which an attribute counts as agreeing.
    """

    normalized = False

    def __init__(
        self,
        m_probabilities: Mapping[str, float],
        u_probabilities: Mapping[str, float],
        *,
        agreement_threshold: float = 0.85,
    ) -> None:
        if set(m_probabilities) != set(u_probabilities):
            raise ValueError(
                "m- and u-probabilities must cover the same attributes"
            )
        for name, probs in (("m", m_probabilities), ("u", u_probabilities)):
            for attr, prob in probs.items():
                if not 0.0 < prob < 1.0:
                    raise ValueError(
                        f"{name}-probability of {attr!r} must lie in "
                        f"(0, 1), got {prob}"
                    )
        if not 0.0 < agreement_threshold <= 1.0:
            raise ValueError(
                f"agreement_threshold must lie in (0, 1], "
                f"got {agreement_threshold}"
            )
        self._m = {k: float(v) for k, v in m_probabilities.items()}
        self._u = {k: float(v) for k, v in u_probabilities.items()}
        self._threshold = agreement_threshold

    def agreement_pattern(self, vector: ComparisonVector) -> tuple[bool, ...]:
        """The binary agreement vector γ derived from c⃗."""
        return tuple(c >= self._threshold for c in vector.values)

    def attribute_floors(self) -> SimilarityFloors:
        """Pushdown floors: the agreement threshold, for every attribute.

        Like the full Fellegi–Sunter model, this combiner reads each
        similarity only through ``γ_a = [c_a ≥ agreement_threshold]``,
        so similarities below the threshold are interchangeable with
        0.0 bit for bit (see :mod:`repro.matching.pushdown`).
        """
        return SimilarityFloors.uniform(self._threshold)

    def __call__(self, vector: ComparisonVector) -> float:
        weight = 0.0
        for attribute, similarity in zip(vector.attributes, vector.values):
            if attribute not in self._m:
                raise KeyError(
                    f"no m/u probabilities for attribute {attribute!r}"
                )
            m, u = self._m[attribute], self._u[attribute]
            if similarity >= self._threshold:
                weight += math.log2(m / u)
            else:
                weight += math.log2((1.0 - m) / (1.0 - u))
        return weight

    def __repr__(self) -> str:
        return (
            f"LogLikelihoodRatio(m={self._m!r}, u={self._u!r}, "
            f"threshold={self._threshold})"
        )


#: Registry by name, for experiment configuration files.
COMBINATION_FUNCTIONS = {
    "average": Average,
    "minimum": Minimum,
    "maximum": Maximum,
    "product": Product,
    "weighted_sum": WeightedSum,
    "log_likelihood_ratio": LogLikelihoodRatio,
}
