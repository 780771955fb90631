"""SNM with uncertain key values via probabilistic ranking (Section V-A.4).

"Another and w.r.t. effectiveness more promising approach is to allow
uncertain key values and to sort the tuples by using a ranking function
as proposed for probabilistic databases."  Each x-tuple keeps its whole
key distribution; a ranking function over uncertain keys produces the
total order the window slides over — Figure 13's ranked relation.

The ranking functions themselves live in :mod:`repro.pdb.ranking`
(expected rank [35], most-probable key, PRF^e [37]); the default expected
rank reproduces Figure 13 exactly and runs in ``O(n log n)``, the
complexity the paper cites.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.pdb.ranking import KeyDistribution, expected_rank_order
from repro.pdb.relations import XRelation
from repro.reduction.keys import SubstringKey, xtuple_key_distribution
from repro.reduction.plan import (
    CandidatePlan,
    plan_from_window,
    planning_view,
)
from repro.reduction.snm import window_pairs

#: Signature of a ranking function over `(item, key distribution)` pairs.
RankingFunction = Callable[
    [Sequence[tuple[str, KeyDistribution]]], list[str]
]


class UncertainKeySNM:
    """Sorted Neighborhood over *uncertain* keys.

    Parameters
    ----------
    key:
        Key specification; per-tuple key distributions are built with
        :func:`repro.reduction.keys.xtuple_key_distribution` (conditioned
        on presence, because membership must not influence detection).
    window:
        Window size (≥ 2).
    ranking:
        Ranking function; default expected rank (reproduces Figure 13).
    """

    def __init__(
        self,
        key: SubstringKey,
        window: int = 3,
        *,
        ranking: RankingFunction = expected_rank_order,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self._key = key
        self._window = window
        self._ranking = ranking

    def key_distributions(
        self, relation: XRelation
    ) -> list[tuple[str, list[tuple[str, float]]]]:
        """``(tuple id, key distribution)`` for every x-tuple.

        The probability-annotated key column of Figure 13 (left).
        """
        return [
            (
                xtuple.tuple_id,
                xtuple_key_distribution(xtuple, self._key),
            )
            for xtuple in planning_view(relation, self._key.attributes)
        ]

    def ranked_ids(self, relation: XRelation) -> list[str]:
        """Tuple ids in ranked order (Figure 13, right)."""
        return self._ranking(self.key_distributions(relation))

    def pairs(self, relation: XRelation) -> Iterator[tuple[str, str]]:
        """Window pairs over the ranked order."""
        return window_pairs(self.ranked_ids(relation), self._window)

    def plan(self, relation: XRelation) -> CandidatePlan:
        """Contiguous spans of the ranked order as partitions.

        The uncertain keys never collapse to certain values: tuples are
        *ranked* by their whole key distribution (Figure 13) and the
        window slides over that ranking, so a span's tuples are
        neighbors in expected-rank space.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> from repro.reduction.keys import SubstringKey
        >>> relation = XRelation("R", ("name",), [
        ...     XTuple("t1", (TupleAlternative({"name": "anna"}, 0.7),
        ...                   TupleAlternative({"name": "hanna"}, 0.3))),
        ...     XTuple("t2", (TupleAlternative({"name": "anne"}, 1.0),)),
        ...     XTuple("t3", (TupleAlternative({"name": "zoe"}, 1.0),))])
        >>> plan = UncertainKeySNM(SubstringKey([("name", 2)]), window=2).plan(relation)
        >>> [p.label for p in plan]
        ['rows[0:3]']
        >>> sorted(plan.pairs())
        [('t1', 't2'), ('t1', 't3')]
        """
        return plan_from_window(
            self.ranked_ids(relation),
            self._window,
            relation_size=len(relation),
            source=repr(self),
        )

    def __repr__(self) -> str:
        ranking_name = getattr(
            self._ranking, "__name__", repr(self._ranking)
        )
        return (
            f"UncertainKeySNM(key={self._key!r}, window={self._window}, "
            f"ranking={ranking_name})"
        )
