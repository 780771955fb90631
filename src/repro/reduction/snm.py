"""The classic Sorted-Neighborhood Method over certain keys ([19], [22]).

Given one certain key per tuple, SNM sorts the tuples by key and compares
only tuples within a sliding window of fixed size.  This module provides
the windowing core shared by every probabilistic adaptation in
Section V-A:

* :func:`window_pairs` — pairs emitted by a sliding window over an
  ordered id sequence (possibly with repeated ids, as produced by the
  sorting-alternatives strategy);
* :class:`SortedNeighborhood` — the full classic method as a
  :class:`~repro.matching.pipeline.PairGenerator`, parameterized by how
  the certain key per tuple is obtained.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.pdb.relations import XRelation
from repro.pdb.xtuples import XTuple
from repro.reduction.keys import SubstringKey, most_probable_key
from repro.reduction.plan import (
    CandidatePlan,
    ordered_pair as _ordered,
    plan_from_window,
    tuple_keys,
)

def window_pairs(
    ordered_ids: Sequence[str],
    window: int,
    *,
    skip_duplicate_pairs: bool = True,
) -> Iterator[tuple[str, str]]:
    """Pairs produced by sliding a window of size *window* over the order.

    Every entry is compared with the ``window - 1`` entries following it.
    Self-pairs (the same tuple id appearing twice, possible when sorting
    alternatives) are never emitted; with *skip_duplicate_pairs* each
    unordered pair is emitted at most once — the matching matrix of
    Figure 12.

    Raises
    ------
    ValueError
        For window sizes below 2 (no comparisons would happen).
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    seen: set[tuple[str, str]] = set()
    for index, left in enumerate(ordered_ids):
        for offset in range(1, window):
            if index + offset >= len(ordered_ids):
                break
            right = ordered_ids[index + offset]
            if left == right:
                continue
            pair = _ordered(left, right)
            if skip_duplicate_pairs:
                if pair in seen:
                    continue
                seen.add(pair)
            yield pair


def sort_by_key(
    keyed_ids: Iterable[tuple[str, str]],
) -> list[str]:
    """Order tuple ids by their key values (stable on input order)."""
    return [tuple_id for _, tuple_id in sorted(
        keyed_ids, key=lambda pair: pair[0]
    )]


class SortedNeighborhood:
    """Classic SNM as a pair generator over an x-relation.

    Parameters
    ----------
    key:
        The sorting-key specification.
    window:
        Window size (≥ 2).
    key_strategy:
        How to obtain one *certain* key per x-tuple.  Defaults to the
        most probable key value (the metadata-based deciding strategy of
        Section V-A.2); pass any callable ``(XTuple, SubstringKey) → str``
        to plug in a different conflict-resolution strategy.
    """

    def __init__(
        self,
        key: SubstringKey,
        window: int = 3,
        *,
        key_strategy: Callable[[XTuple, SubstringKey], str] = most_probable_key,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self._key = key
        self._window = window
        self._key_strategy = key_strategy

    @property
    def window(self) -> int:
        """The window size."""
        return self._window

    def keyed_ids(self, relation: XRelation) -> list[tuple[str, str]]:
        """``(key value, tuple id)`` pairs for the whole relation.

        Keys come from :func:`~repro.reduction.plan.tuple_keys`
        (columnar stores serve the pass from the keyed columns alone;
        session overlays re-key changed tuples only).
        """
        return [
            (key_value, tuple_id)
            for tuple_id, key_value in tuple_keys(
                relation, self._key, self._key_strategy
            )
        ]

    def sorted_ids(self, relation: XRelation) -> list[str]:
        """Tuple ids in key order (the sorted relation of Figure 10)."""
        return sort_by_key(self.keyed_ids(relation))

    def pairs(self, relation: XRelation) -> Iterator[tuple[str, str]]:
        """Candidate pairs of the sliding window."""
        return window_pairs(self.sorted_ids(relation), self._window)

    def plan(self, relation: XRelation) -> CandidatePlan:
        """Contiguous spans of the sort order as partitions.

        A span's tuples are key-neighbors, so its candidate pairs share
        the cache working set; spans overlap only through the window
        stragglers at each boundary.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> from repro.reduction.keys import SubstringKey
        >>> relation = XRelation("R", ("name",), [
        ...     XTuple(t, (TupleAlternative({"name": n}, 1.0),))
        ...     for t, n in [("t1", "anna"), ("t2", "bob"), ("t3", "anne")]])
        >>> reducer = SortedNeighborhood(SubstringKey([("name", 3)]), window=2)
        >>> plan = reducer.plan(relation)
        >>> [p.label for p in plan]  # one span: 3 rows fit the target
        ['rows[0:3]']
        >>> list(plan.pairs())  # key order ann, ann, bob; window 2
        [('t1', 't3'), ('t2', 't3')]
        """
        return plan_from_window(
            self.sorted_ids(relation),
            self._window,
            relation_size=len(relation),
            source=repr(self),
        )

    def __repr__(self) -> str:
        return (
            f"SortedNeighborhood(key={self._key!r}, window={self._window})"
        )
