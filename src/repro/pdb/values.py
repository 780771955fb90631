"""Uncertain attribute values: discrete distributions over a domain plus ⊥.

This module implements the attribute-value-level uncertainty of the paper
(Section IV).  An uncertain attribute value is a discrete probability
distribution over domain elements.  Probability mass may be missing: the
residual mass is interpreted as *non-existence* of the property, written ⊥
in the paper and represented here by the :data:`NULL` sentinel.

Example from the paper (Figure 4): the ``job`` value of tuple ``t11`` is
``{machinist: 0.7, mechanic: 0.2}`` — "the person represented by tuple t11
is jobless with a probability of 10%", i.e. ``P(⊥) = 0.1``.

Pattern values such as ``mu*`` (Section IV-B) — a uniform distribution over
all domain elements matching a prefix pattern — are supported through
:class:`PatternValue` together with :meth:`ProbabilisticValue.expand_patterns`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from repro.pdb.errors import (
    EmptyDistributionError,
    InvalidProbabilityError,
)

#: Absolute tolerance used for all probability-mass arithmetic.
PROBABILITY_TOLERANCE = 1e-9


class _NonExistent:
    """Singleton sentinel for the paper's ⊥ ("the property does not exist").

    ⊥ is a first-class domain element: two non-existent values are maximally
    similar (they denote the same real-world fact), while ⊥ is maximally
    dissimilar to every existing value (Section IV-A).
    """

    _instance: "_NonExistent | None" = None

    def __new__(cls) -> "_NonExistent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self) -> tuple[type, tuple[()]]:
        return (_NonExistent, ())

    def __hash__(self) -> int:
        return hash("_repro_pdb_non_existent_")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NonExistent)


#: The unique non-existence marker (the paper's ⊥).
NULL = _NonExistent()


class PatternValue:
    """A compact stand-in for a uniform distribution over a value family.

    The ULDB model cannot enumerate large or infinite alternative sets, so
    the paper represents e.g. "some job starting with ``mu``" as the pattern
    value ``mu*``.  A :class:`PatternValue` stores the prefix and can be
    *expanded* against a lexicon into an explicit uniform distribution.

    Parameters
    ----------
    pattern:
        The pattern string.  Only trailing-``*`` prefix patterns are
        supported, mirroring the paper's ``mu*`` example.  A pattern without
        ``*`` matches exactly itself.
    """

    __slots__ = ("pattern", "_prefix")

    def __init__(self, pattern: str) -> None:
        if not isinstance(pattern, str) or not pattern:
            raise ValueError("pattern must be a non-empty string")
        self.pattern = pattern
        self._prefix = pattern[:-1] if pattern.endswith("*") else pattern

    @property
    def prefix(self) -> str:
        """The fixed prefix of the pattern (``mu`` for ``mu*``)."""
        return self._prefix

    def is_wildcard(self) -> bool:
        """Whether the pattern ends in ``*`` and thus denotes a family."""
        return self.pattern.endswith("*")

    def matches(self, candidate: Any) -> bool:
        """Return ``True`` if *candidate* belongs to the pattern family."""
        if not isinstance(candidate, str):
            return False
        if self.is_wildcard():
            return candidate.startswith(self._prefix)
        return candidate == self.pattern

    def expansions(self, lexicon: Iterable[str]) -> list[str]:
        """All lexicon entries matched by this pattern, in lexicon order."""
        return [word for word in lexicon if self.matches(word)]

    def __repr__(self) -> str:
        return f"PatternValue({self.pattern!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PatternValue) and other.pattern == self.pattern

    def __hash__(self) -> int:
        return hash(("PatternValue", self.pattern))


def _validate_probability(prob: float, *, what: str) -> float:
    prob = float(prob)
    if math.isnan(prob) or prob <= 0.0 or prob > 1.0 + PROBABILITY_TOLERANCE:
        raise InvalidProbabilityError(
            f"{what} must lie in (0, 1], got {prob!r}"
        )
    return min(prob, 1.0)


class ProbabilisticValue:
    """An immutable discrete probability distribution over domain values.

    The distribution may include :data:`NULL` explicitly; any probability
    mass not accounted for by the given outcomes is assigned to
    :data:`NULL` implicitly, following the paper's reading of Figure 4.

    Instances behave as values: they are hashable, comparable for equality
    and safe to share between tuples.

    Parameters
    ----------
    outcomes:
        Mapping from domain element to probability.  Probabilities must lie
        in ``(0, 1]`` and sum to at most 1 (within tolerance).
    """

    __slots__ = ("_dist", "_hash", "_exact_key")

    def __init__(self, outcomes: Mapping[Any, float]) -> None:
        if not outcomes:
            raise EmptyDistributionError(
                "a probabilistic value needs at least one outcome"
            )
        dist: dict[Any, float] = {}
        total = 0.0
        for value, prob in outcomes.items():
            prob = _validate_probability(prob, what=f"P({value!r})")
            if value in dist:
                raise InvalidProbabilityError(
                    f"outcome {value!r} listed twice"
                )
            dist[value] = prob
            total += prob
        if total > 1.0 + PROBABILITY_TOLERANCE:
            raise InvalidProbabilityError(
                f"total probability mass {total} exceeds 1"
            )
        residual = 1.0 - total
        if residual > PROBABILITY_TOLERANCE:
            dist[NULL] = dist.get(NULL, 0.0) + residual
        self._dist: dict[Any, float] = dist
        self._hash: int | None = None
        self._exact_key: tuple[tuple[Any, float], ...] | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def certain(cls, value: Any) -> "ProbabilisticValue":
        """A distribution with all mass on a single domain element."""
        return cls({value: 1.0})

    @classmethod
    def missing(cls) -> "ProbabilisticValue":
        """The certainly-non-existent value (all mass on ⊥)."""
        return cls({NULL: 1.0})

    @classmethod
    def uniform(cls, values: Iterable[Any]) -> "ProbabilisticValue":
        """A uniform distribution over *values*."""
        values = list(values)
        if not values:
            raise EmptyDistributionError("uniform() over empty value set")
        share = 1.0 / len(values)
        return cls({value: share for value in values})

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Any, float]]
    ) -> "ProbabilisticValue":
        """Build from ``(value, probability)`` pairs."""
        return cls(dict(pairs))

    @classmethod
    def from_pattern(
        cls, pattern: str, lexicon: Iterable[str]
    ) -> "ProbabilisticValue":
        """Expand a prefix pattern against *lexicon* into a uniform value.

        Mirrors the paper's ``mu*`` example: a uniform distribution over all
        lexicon entries starting with the prefix.
        """
        matches = PatternValue(pattern).expansions(lexicon)
        if not matches:
            raise EmptyDistributionError(
                f"pattern {pattern!r} matches nothing in the lexicon"
            )
        return cls.uniform(matches)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Any, float]]:
        """Iterate over ``(value, probability)`` pairs (⊥ included)."""
        return iter(self._dist.items())

    @property
    def support(self) -> tuple[Any, ...]:
        """All outcomes with positive probability, ⊥ included."""
        return tuple(self._dist.keys())

    @property
    def existing_support(self) -> tuple[Any, ...]:
        """All outcomes except ⊥."""
        return tuple(v for v in self._dist if v is not NULL)

    def probability(self, value: Any) -> float:
        """``P(X = value)``; 0.0 for outcomes outside the support."""
        return self._dist.get(value, 0.0)

    @property
    def null_probability(self) -> float:
        """``P(X = ⊥)`` — the probability the property does not exist."""
        return self._dist.get(NULL, 0.0)

    @property
    def is_certain(self) -> bool:
        """Whether all probability mass sits on a single outcome."""
        return len(self._dist) == 1

    @property
    def is_null(self) -> bool:
        """Whether the value is certainly non-existent."""
        return self.is_certain and NULL in self._dist

    @property
    def certain_value(self) -> Any:
        """The single outcome of a certain value.

        Raises
        ------
        ValueError
            If the value is uncertain.
        """
        if not self.is_certain:
            raise ValueError(f"{self!r} is not certain")
        return next(iter(self._dist))

    def most_probable(self) -> Any:
        """The modal outcome (ties broken by insertion order)."""
        best_value, best_prob = None, -1.0
        for value, prob in self._dist.items():
            if prob > best_prob + PROBABILITY_TOLERANCE:
                best_value, best_prob = value, prob
        return best_value

    def entropy(self) -> float:
        """Shannon entropy in bits; 0 for certain values."""
        return -sum(p * math.log2(p) for p in self._dist.values() if p > 0.0)

    def alternative_count(self) -> int:
        """Number of outcomes in the support (⊥ included)."""
        return len(self._dist)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "ProbabilisticValue":
        """Apply *fn* to every existing outcome, merging collisions.

        ⊥ is preserved untouched.  Used by data preparation to standardize
        every alternative of an uncertain value at once.
        """
        merged: dict[Any, float] = {}
        for value, prob in self._dist.items():
            image = value if value is NULL else fn(value)
            merged[image] = merged.get(image, 0.0) + prob
        return ProbabilisticValue(merged)

    def filter(self, predicate: Callable[[Any], bool]) -> "ProbabilisticValue":
        """Condition the distribution on ``predicate(outcome)`` being true.

        Probabilities are renormalized (conditioning / scaling, [32, 33]).

        Raises
        ------
        EmptyDistributionError
            If no outcome satisfies the predicate.
        """
        kept = {v: p for v, p in self._dist.items() if predicate(v)}
        if not kept:
            raise EmptyDistributionError("conditioning removed every outcome")
        total = sum(kept.values())
        return ProbabilisticValue({v: p / total for v, p in kept.items()})

    def expand_patterns(self, lexicon: Iterable[str]) -> "ProbabilisticValue":
        """Replace every :class:`PatternValue` outcome by its expansion.

        The pattern's probability mass is divided uniformly among the
        lexicon entries it matches, mirroring the paper's reading of
        ``mu*`` as "a uniform distribution over all possible jobs starting
        with the characters 'mu'".
        """
        lexicon = list(lexicon)
        merged: dict[Any, float] = {}
        for value, prob in self._dist.items():
            if isinstance(value, PatternValue):
                matches = value.expansions(lexicon)
                if not matches:
                    raise EmptyDistributionError(
                        f"pattern {value.pattern!r} matches nothing"
                    )
                share = prob / len(matches)
                for word in matches:
                    merged[word] = merged.get(word, 0.0) + share
            else:
                merged[value] = merged.get(value, 0.0) + prob
        return ProbabilisticValue(merged)

    # ------------------------------------------------------------------
    # Probabilistic comparison (Equations 4 and 5 of the paper)
    # ------------------------------------------------------------------

    def equality_probability(self, other: "ProbabilisticValue") -> float:
        """Equation 4: ``P(a1 = a2)`` under independence.

        The probability that two independently drawn values are equal,
        with ⊥ = ⊥ counting as equal (same real-world fact).
        """
        total = 0.0
        for value, prob in self._dist.items():
            other_prob = other.probability(value)
            if other_prob > 0.0:
                total += prob * other_prob
        return total

    def expected_similarity(
        self,
        other: "ProbabilisticValue",
        similarity: Callable[[Any, Any], float],
    ) -> float:
        """Equation 5: expected similarity over the joint distribution.

        ``sim(a1,a2) = Σ_{d1} Σ_{d2} P(a1=d1) · P(a2=d2) · sim(d1,d2)``
        with the paper's ⊥ semantics handled here so that *similarity*
        only ever sees existing domain elements:

        * ``sim(⊥, ⊥) = 1``
        * ``sim(a, ⊥) = sim(⊥, a) = 0`` for every existing ``a``.
        """
        total = 0.0
        for left_value, left_prob in self._dist.items():
            for right_value, right_prob in other._dist.items():
                weight = left_prob * right_prob
                if left_value is NULL and right_value is NULL:
                    total += weight
                elif left_value is NULL or right_value is NULL:
                    continue
                else:
                    total += weight * similarity(left_value, right_value)
        return total

    # ------------------------------------------------------------------
    # Value protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticValue):
            return NotImplemented
        if self._dist.keys() != other._dist.keys():
            return False
        return all(
            abs(prob - other._dist[value]) <= PROBABILITY_TOLERANCE
            for value, prob in self._dist.items()
        )

    @property
    def exact_key(self) -> tuple[tuple[Any, float], ...]:
        """The exact, ordered ``(outcome, probability)`` items.

        ``==`` and ``hash`` tolerate probability differences up to
        :data:`PROBABILITY_TOLERANCE` and ignore outcome order, but the
        Equation-5 double loop's floating-point sum depends on both; a
        memo keyed on this tuple therefore returns, bit for bit, what
        the uncached loop computes.  Built once per value.
        """
        key = self._exact_key
        if key is None:
            key = self._exact_key = tuple(self._dist.items())
        return key

    def __hash__(self) -> int:
        if self._hash is None:
            rounded = frozenset(
                (value, round(prob, 9)) for value, prob in self._dist.items()
            )
            self._hash = hash(rounded)
        return self._hash

    def __repr__(self) -> str:
        if self.is_certain:
            return f"ProbabilisticValue.certain({next(iter(self._dist))!r})"
        body = ", ".join(
            f"{value!r}: {prob:g}" for value, prob in self._dist.items()
        )
        return f"ProbabilisticValue({{{body}}})"

    def pretty(self) -> str:
        """Compact human-readable rendering matching the paper's figures."""
        if self.is_certain:
            value = next(iter(self._dist))
            return "⊥" if value is NULL else str(value)
        body = ", ".join(
            f"{'⊥' if value is NULL else value}: {prob:g}"
            for value, prob in self._dist.items()
        )
        return "{" + body + "}"
