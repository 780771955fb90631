"""Derived keys: transformation-based sorting/blocking keys.

:class:`SubstringKey` covers the paper's prefix keys; real deployments
often key on *derived* forms — phonetic codes survive misspellings,
normalized strings survive case/whitespace noise.  :class:`DerivedKey`
generalizes the key-part concept to ``(attribute, transform)`` pairs
whose string results are concatenated; :func:`phonetic_key` provides the
standard Soundex-on-name construction.

Derived keys compose with every reduction strategy in this package: the
probabilistic machinery (key distributions, conditioning, ranking) only
relies on the per-outcome key pieces, which this module supplies through
the same interface as :class:`SubstringKey`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.pdb.values import NULL, PatternValue
from repro.reduction.blocking import KeyDistributionBlocking
from repro.similarity.phonetic import soundex

#: A key-part transform: concrete outcome → key piece.
PartTransform = Callable[[Any], str]


def prefix_transform(length: int) -> PartTransform:
    """The SubstringKey behaviour as a transform: ``str(value)[:length]``."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")

    def _prefix(value: Any) -> str:
        return str(value)[:length]

    return _prefix


def soundex_transform(value: Any) -> str:
    """Soundex code of the value (``0000`` for non-alphabetic input)."""
    return soundex(str(value))


class DerivedKey:
    """Concatenation of per-attribute transform results.

    Parameters
    ----------
    parts:
        ``(attribute, transform)`` pairs.  Each transform maps one
        concrete outcome to its key piece; ⊥ always contributes the
        empty string (mirroring :class:`SubstringKey`), and pattern
        values contribute the transform of their fixed prefix when that
        is well-defined, else raise.
    """

    def __init__(
        self, parts: Sequence[tuple[str, PartTransform]]
    ) -> None:
        if not parts:
            raise ValueError("a key needs at least one part")
        self._parts = tuple((str(a), t) for a, t in parts)

    @property
    def parts(self) -> tuple[tuple[str, PartTransform], ...]:
        """The ``(attribute, transform)`` specification.

        Exposed with the same shape contract as
        :attr:`SubstringKey.parts` consumers rely on (attribute first).
        """
        return self._parts

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attributes the key reads."""
        return tuple(attribute for attribute, _ in self._parts)

    def _piece(self, value: Any, transform: PartTransform) -> str:
        if value is NULL:
            return ""
        if isinstance(value, PatternValue):
            return transform(value.prefix)
        return transform(value)

    def for_assignment(self, assignment: Mapping[str, Any]) -> str:
        """Key of one concrete attribute assignment."""
        return "".join(
            self._piece(assignment[attribute], transform)
            for attribute, transform in self._parts
        )

    def __repr__(self) -> str:
        attrs = ", ".join(attribute for attribute, _ in self._parts)
        return f"DerivedKey({attrs})"


def derived_alternative_key_distribution(
    alternative, key: DerivedKey
) -> list[tuple[str, float]]:
    """Key distribution of one alternative under a derived key.

    The derived-key analogue of
    :func:`repro.reduction.keys.alternative_key_distribution`.
    """
    pieces_per_part: list[list[tuple[str, float]]] = []
    for attribute, transform in key.parts:
        outcomes: dict[str, float] = {}
        for outcome, probability in alternative.value(attribute).items():
            piece = key._piece(outcome, transform)
            outcomes[piece] = outcomes.get(piece, 0.0) + probability
        pieces_per_part.append(list(outcomes.items()))
    keys: dict[str, float] = {"": 1.0}
    for part_outcomes in pieces_per_part:
        next_keys: dict[str, float] = {}
        for prefix, prefix_prob in keys.items():
            for piece, piece_prob in part_outcomes:
                candidate = prefix + piece
                next_keys[candidate] = (
                    next_keys.get(candidate, 0.0)
                    + prefix_prob * piece_prob
                )
        keys = next_keys
    return list(keys.items())


def derived_xtuple_key_distribution(
    xtuple, key: DerivedKey, *, conditioned: bool = True
) -> list[tuple[str, float]]:
    """X-tuple key distribution under a derived key."""
    weighted: dict[str, float] = {}
    pairs = (
        xtuple.conditioned_alternatives()
        if conditioned
        else [(alt, alt.probability) for alt in xtuple.alternatives]
    )
    for alternative, weight in pairs:
        for candidate, probability in derived_alternative_key_distribution(
            alternative, key
        ):
            weighted[candidate] = (
                weighted.get(candidate, 0.0) + weight * probability
            )
    return list(weighted.items())


def derived_most_probable_key(xtuple, key: DerivedKey) -> str:
    """Modal key under a derived key (ties by first occurrence)."""
    distribution = derived_xtuple_key_distribution(xtuple, key)
    best_key, best_prob = distribution[0]
    for candidate, probability in distribution[1:]:
        if probability > best_prob + 1e-12:
            best_key, best_prob = candidate, probability
    return best_key


def phonetic_key(
    name_attribute: str = "name",
    *,
    extra_parts: Sequence[tuple[str, PartTransform]] = (),
) -> DerivedKey:
    """The standard phonetic blocking key: Soundex of the name.

    Misspelled duplicates (Tim/Tym, Stephan/Stefan) keep the same code,
    so phonetic blocks lose far fewer true matches than prefix blocks of
    comparable selectivity.
    """
    parts: list[tuple[str, PartTransform]] = [
        (name_attribute, soundex_transform)
    ]
    parts.extend(extra_parts)
    return DerivedKey(parts)


class PhoneticBlocking(KeyDistributionBlocking):
    """Blocking on the Soundex key of each x-tuple's alternatives.

    Every alternative contributes its phonetic key; an x-tuple joins
    every corresponding block once (the alternative-key discipline of
    Figure 14 applied to derived keys), so phonetically close
    spellings land in one block regardless of which alternative is
    true.

    >>> from repro.pdb.relations import XRelation
    >>> from repro.pdb.xtuples import TupleAlternative, XTuple
    >>> relation = XRelation("R", ("name",), [
    ...     XTuple(t, (TupleAlternative({"name": n}, 1.0),))
    ...     for t, n in [("t1", "meier"), ("t2", "meyer"), ("t3", "smith")]])
    >>> [(p.label, p.pairs) for p in PhoneticBlocking().plan(relation)]
    [('block:M600', (('t1', 't2'),))]
    """

    def __init__(self, key: DerivedKey | None = None) -> None:
        super().__init__(key if key is not None else phonetic_key())

    def key_distribution(self, alternative) -> list[tuple[str, float]]:
        """The alternative's derived-key distribution."""
        return derived_alternative_key_distribution(alternative, self._key)

    def __repr__(self) -> str:
        return f"PhoneticBlocking({self._key!r})"
