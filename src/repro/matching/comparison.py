"""Attribute value matching: comparison vectors and matrices.

Section III-C: "From comparing two tuples, we obtain a comparison vector
c⃗ = [c1, …, cn], where ci represents the similarity of the values from
the i-th attribute."  For x-tuple pairs (Section IV-B) one comparison
vector per *alternative pair* is produced, forming a ``k × l`` comparison
matrix.

The central class is :class:`AttributeMatcher`: it holds one uncertain-
value comparator per attribute and turns tuple pairs into comparison
vectors and x-tuple pairs into comparison matrices.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any, Union

import numpy as np

from repro.pdb.tuples import ProbabilisticTuple
from repro.pdb.values import ProbabilisticValue
from repro.pdb.xtuples import TupleAlternative, XTuple
from repro.similarity.base import Comparator
from repro.similarity.kernels import SimilarityCache
from repro.similarity.uncertain import CodedValues, UncertainValueComparator

#: Things an attribute matcher can compare: flat tuples or x-tuple alternatives.
Row = Union[ProbabilisticTuple, TupleAlternative]


class ComparisonVector:
    """The paper's c⃗: per-attribute similarities of one tuple pair.

    Behaves as an immutable sequence of floats while retaining the
    attribute names for reporting.
    """

    __slots__ = ("_attributes", "_values", "_index")

    def __init__(
        self, attributes: Sequence[str], values: Sequence[float]
    ) -> None:
        if len(attributes) != len(values):
            raise ValueError(
                f"{len(attributes)} attributes but {len(values)} similarities"
            )
        for attribute, value in zip(attributes, values):
            if not 0.0 <= value <= 1.0 + 1e-12:
                raise ValueError(
                    f"similarity of {attribute!r} outside [0, 1]: {value}"
                )
        self._attributes = tuple(attributes)
        self._values = tuple(min(float(v), 1.0) for v in values)
        self._index: dict[str, int] | None = None

    @classmethod
    def trusted(
        cls, attributes: tuple[str, ...], values: tuple[float, ...]
    ) -> "ComparisonVector":
        """Hot-path constructor that skips per-element validation.

        Callers must guarantee aligned tuples with similarities already
        in ``[0, 1]`` (true for everything produced by an
        :class:`UncertainValueComparator`, whose results are convex
        combinations of normalized base similarities).
        """
        vector = cls.__new__(cls)
        vector._attributes = attributes
        vector._values = values
        vector._index = None
        return vector

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names, aligned with :attr:`values`."""
        return self._attributes

    @property
    def values(self) -> tuple[float, ...]:
        """The similarities ``c1, …, cn``."""
        return self._values

    def similarity(self, attribute: str) -> float:
        """The similarity of one named attribute."""
        index = self._index
        if index is None:
            index = {
                name: pos for pos, name in enumerate(self._attributes)
            }
            self._index = index
        try:
            return self._values[index[attribute]]
        except KeyError:
            raise KeyError(attribute) from None

    def as_dict(self) -> dict[str, float]:
        """``{attribute: similarity}`` mapping."""
        return dict(zip(self._attributes, self._values))

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int) -> float:
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComparisonVector):
            return NotImplemented
        return (
            self._attributes == other._attributes
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._attributes, self._values))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{attr}={value:.4g}"
            for attr, value in zip(self._attributes, self._values)
        )
        return f"ComparisonVector({body})"


class ComparisonMatrix:
    """The paper's c⃗(t1, t2) = [c⃗11, …, c⃗kl] for an x-tuple pair.

    Element ``(i, j)`` is the comparison vector of alternative pair
    ``(t1ⁱ, t2ʲ)``.  Alternative probabilities are carried along because
    every derivation function needs them.
    """

    __slots__ = (
        "_vectors",
        "_left_probs",
        "_right_probs",
        "_weights",
    )

    def __init__(
        self,
        vectors: Sequence[Sequence[ComparisonVector]],
        left_probabilities: Sequence[float],
        right_probabilities: Sequence[float],
    ) -> None:
        if len(vectors) != len(left_probabilities):
            raise ValueError("row count must match left alternative count")
        for row in vectors:
            if len(row) != len(right_probabilities):
                raise ValueError(
                    "column count must match right alternative count"
                )
        self._init_trusted(
            tuple(tuple(row) for row in vectors),
            tuple(float(p) for p in left_probabilities),
            tuple(float(p) for p in right_probabilities),
        )

    @classmethod
    def trusted(
        cls,
        vectors: tuple[tuple[ComparisonVector, ...], ...],
        left_probabilities: tuple[float, ...],
        right_probabilities: tuple[float, ...],
    ) -> "ComparisonMatrix":
        """Hot-path constructor that skips shape validation.

        Callers must pass well-formed nested tuples whose row/column
        counts match the probability tuples (guaranteed when the
        matrix comes straight out of :meth:`AttributeMatcher.compare_xtuples`).
        """
        matrix = cls.__new__(cls)
        matrix._init_trusted(
            vectors, left_probabilities, right_probabilities
        )
        return matrix

    def _init_trusted(
        self,
        vectors: tuple[tuple[ComparisonVector, ...], ...],
        left_probabilities: tuple[float, ...],
        right_probabilities: tuple[float, ...],
    ) -> None:
        self._vectors = vectors
        self._left_probs = left_probabilities
        self._right_probs = right_probabilities
        # The Eq. 6/8/9 conditional pair weights p(t1ⁱ)/p(t1)·p(t2ʲ)/p(t2),
        # built once as the normalized outer product instead of re-summing
        # the alternative probabilities for every cell.  Plain tuples:
        # matrices are usually tiny (1×1 for flat pairs), where scalar
        # math beats array dispatch.
        left_total = sum(left_probabilities)
        right_total = sum(right_probabilities)
        left_conditional = [p / left_total for p in left_probabilities]
        right_conditional = [p / right_total for p in right_probabilities]
        self._weights = tuple(
            tuple(lp * rp for rp in right_conditional)
            for lp in left_conditional
        )

    @property
    def shape(self) -> tuple[int, int]:
        """``(k, l)`` — alternative counts of the two x-tuples."""
        return (len(self._left_probs), len(self._right_probs))

    @property
    def left_probabilities(self) -> tuple[float, ...]:
        """Raw probabilities ``p(t1ⁱ)`` of the left alternatives."""
        return self._left_probs

    @property
    def right_probabilities(self) -> tuple[float, ...]:
        """Raw probabilities ``p(t2ʲ)`` of the right alternatives."""
        return self._right_probs

    def vector(self, i: int, j: int) -> ComparisonVector:
        """The comparison vector of alternative pair ``(i, j)``."""
        return self._vectors[i][j]

    def __getitem__(self, index: tuple[int, int]) -> ComparisonVector:
        i, j = index
        return self._vectors[i][j]

    def rows(self) -> tuple[tuple[ComparisonVector, ...], ...]:
        """All comparison vectors as row-major nested tuples."""
        return self._vectors

    def cells(self) -> Iterator[tuple[int, int, ComparisonVector]]:
        """Iterate ``(i, j, vector)`` in row-major order."""
        for i, row in enumerate(self._vectors):
            for j, vector in enumerate(row):
                yield i, j, vector

    @property
    def weights(self) -> tuple[tuple[float, ...], ...]:
        """Row-major conditional pair weights, precomputed once.

        Rows sum to the left conditional probabilities and the whole
        matrix sums to 1.
        """
        return self._weights

    def conditional_weight(self, i: int, j: int) -> float:
        """``p(t1ⁱ)/p(t1) · p(t2ʲ)/p(t2)`` — the Eq. 6/8/9 pair weight.

        This is the probability of the possible world (restricted to the
        two x-tuples) in which alternatives *i* and *j* co-occur,
        conditioned on both tuples being present (event B).
        """
        return self._weights[i][j]

    def __repr__(self) -> str:
        k, l = self.shape
        return f"ComparisonMatrix({k}×{l})"


class AttributeMatcher:
    """Turns tuple pairs into comparison vectors / matrices.

    Parameters
    ----------
    comparators:
        Mapping from attribute name to a comparator.  Plain comparators on
        certain values are lifted automatically with
        :class:`UncertainValueComparator` (Equation 5); pass an
        :class:`UncertainValueComparator` directly to control pattern
        policy or to select the error-free Equation 4.
        Attributes missing from the mapping fall back to *default*.
    default:
        Comparator used for attributes without an explicit entry; when
        ``None`` (default), comparing an unconfigured attribute raises.
    cache:
        When true, every lifted comparator memoizes its domain-element
        comparisons in a private
        :class:`~repro.similarity.kernels.SimilarityCache` (pre-built
        :class:`UncertainValueComparator` instances keep whatever cache
        configuration they were constructed with).  Caching never changes
        results — only how often the base comparator actually runs.
    """

    def __init__(
        self,
        comparators: Mapping[str, Comparator | UncertainValueComparator],
        *,
        default: Comparator | UncertainValueComparator | None = None,
        cache: bool = False,
    ) -> None:
        self._cache_enabled = bool(cache)
        self._comparators: dict[str, UncertainValueComparator] = {
            str(attr): self._lift(comparator)
            for attr, comparator in comparators.items()
        }
        self._default = self._lift(default) if default is not None else None

    def _lift(
        self,
        comparator: Comparator | UncertainValueComparator,
    ) -> UncertainValueComparator:
        if isinstance(comparator, UncertainValueComparator):
            return comparator
        return UncertainValueComparator(
            comparator, cache=self._cache_enabled
        )

    def configured(
        self, floors=None, kernel: str | None = None
    ) -> "AttributeMatcher":
        """A matcher pruning below *floors* on kernel *kernel*.

        The threshold-pushdown and kernel seam: *floors* (a
        :class:`~repro.matching.pushdown.SimilarityFloors`, normally
        derived from the decision model via
        :func:`~repro.matching.pushdown.derive_floors`; ``None`` keeps
        each comparator's own floor) and *kernel* (``"fast"`` or
        ``"python"``; ``None`` keeps each comparator's own) are
        distributed over the per-attribute comparators with
        :meth:`~repro.similarity.uncertain.UncertainValueComparator.configured`.
        Attributes the floors name but the matcher serves through its
        default comparator get a dedicated entry.  Comparators nothing
        changes (a base with neither a cutoff band nor a kernel switch,
        Equation 4) are reused unchanged, as is the matcher itself when
        nothing changes at all.
        """
        comparators = {
            attribute: comparator.configured(
                floors.floor(attribute) if floors is not None else None,
                kernel,
            )
            for attribute, comparator in self._comparators.items()
        }
        default = self._default
        if default is not None:
            if floors is not None:
                for attribute, floor in floors.per_attribute.items():
                    if attribute not in comparators:
                        comparators[attribute] = default.configured(
                            floor, kernel
                        )
            default = default.configured(
                floors.default if floors is not None else None, kernel
            )
        if default is self._default and all(
            comparator is self._comparators.get(attribute, self._default)
            for attribute, comparator in comparators.items()
        ):
            return self
        # The constructor passes UncertainValueComparator instances
        # through _lift unchanged, so this shares the configured clones.
        return AttributeMatcher(
            comparators, default=default, cache=self._cache_enabled
        )

    def cache_stats(self) -> dict[str, SimilarityCache]:
        """The live per-attribute caches, keyed by attribute name.

        Only attributes whose comparator actually carries a cache appear;
        inspect ``hits`` / ``misses`` / ``hit_rate`` on the values.
        """
        stats: dict[str, SimilarityCache] = {}
        for attr, comparator in self._comparators.items():
            if comparator.cache is not None:
                stats[attr] = comparator.cache
        if self._default is not None and self._default.cache is not None:
            stats["<default>"] = self._default.cache
        return stats

    def comparator_for(self, attribute: str) -> UncertainValueComparator:
        """The configured comparator for *attribute*."""
        comparator = self._comparators.get(attribute, self._default)
        if comparator is None:
            raise KeyError(
                f"no comparator configured for attribute {attribute!r} "
                "and no default given"
            )
        return comparator

    # ------------------------------------------------------------------
    # Vector level
    # ------------------------------------------------------------------

    def compare_values(
        self,
        attribute: str,
        left: ProbabilisticValue | Any,
        right: ProbabilisticValue | Any,
    ) -> float:
        """Expected similarity of one attribute value pair (Eq. 4/5)."""
        return self.comparator_for(attribute)(left, right)

    def compare_rows(self, left: Row, right: Row) -> ComparisonVector:
        """Comparison vector of two rows (flat tuples or alternatives).

        The attribute set is taken from the left row; both rows must share
        the schema (guaranteed when they come from unioned relations).
        """
        attributes = left.attributes
        comparators = self._comparators
        default = self._default
        values: list[float] = []
        for attr in attributes:
            comparator = comparators.get(attr, default)
            if comparator is None:
                raise KeyError(
                    f"no comparator configured for attribute {attr!r} "
                    "and no default given"
                )
            value = comparator(left.value(attr), right.value(attr))
            # Same contract as ComparisonVector.__init__, inlined once
            # per value instead of re-looping in the constructor: loud
            # error outside [0, 1] (a user-pluggable base comparator may
            # not be normalized), round-off above 1 clamped.
            if value > 1.0:
                if value > 1.0 + 1e-12:
                    raise ValueError(
                        f"similarity of {attr!r} outside [0, 1]: {value}"
                    )
                value = 1.0
            elif not value >= 0.0:
                raise ValueError(
                    f"similarity of {attr!r} outside [0, 1]: {value}"
                )
            values.append(value)
        return ComparisonVector.trusted(tuple(attributes), tuple(values))

    def compare_batch(
        self,
        attributes: tuple[str, ...],
        codes: Sequence[CodedValues],
        lefts: np.ndarray,
        rights: np.ndarray,
    ) -> np.ndarray:
        """Comparison vectors of many row pairs, as a cells × attributes array.

        *codes* holds, per attribute, the rows' values as codes of that
        attribute's comparator
        (:meth:`UncertainValueComparator.encode`); cell ``c`` pairs
        rows ``lefts[c]`` and ``rights[c]``.  Its row is bitwise what
        :meth:`compare_rows` returns for that pair when every left row
        has *attributes* — one
        :meth:`UncertainValueComparator.similarity_codes` call per
        attribute, the same loud error for a similarity outside
        ``[0, 1]`` (the first one in row-major order) and the same
        clamp of round-off above 1.
        """
        comparators = self._comparators
        default = self._default
        vectors = np.empty((len(lefts), len(attributes)), dtype=np.float64)
        for column, (attr, coded) in enumerate(zip(attributes, codes)):
            comparator = comparators.get(attr, default)
            if comparator is None:
                raise KeyError(
                    f"no comparator configured for attribute {attr!r} "
                    "and no default given"
                )
            vectors[:, column] = comparator.similarity_codes(
                coded, lefts, rights
            )
        outside = (vectors > 1.0 + 1e-12) | ~(vectors >= 0.0)
        if outside.any():
            cell, column = divmod(int(outside.argmax()), len(attributes))
            raise ValueError(
                f"similarity of {attributes[column]!r} outside [0, 1]: "
                f"{float(vectors[cell, column])}"
            )
        np.minimum(vectors, 1.0, out=vectors)
        return vectors

    # ------------------------------------------------------------------
    # Matrix level
    # ------------------------------------------------------------------

    def compare_xtuples(self, left: XTuple, right: XTuple) -> ComparisonMatrix:
        """The ``k × l`` comparison matrix of an x-tuple pair."""
        compare_rows = self.compare_rows
        right_alternatives = right.alternatives
        vectors = tuple(
            tuple(
                compare_rows(left_alt, right_alt)
                for right_alt in right_alternatives
            )
            for left_alt in left.alternatives
        )
        return ComparisonMatrix.trusted(
            vectors,
            tuple(alt.probability for alt in left.alternatives),
            tuple(alt.probability for alt in right.alternatives),
        )
