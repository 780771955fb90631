"""Sorting alternatives (Section V-A.3, Figures 11 and 12).

"Key values for all (or the most probable) tuple alternatives can be
created.  In this way, each tuple can have multiple key values. …  the
alternatives' key values can be sorted while keeping references to the
tuples they belong to.  As a consequence, each tuple appears in the
sorted relation for multiple times."

Two refinements from the paper, both implemented here:

* **neighbor dedup** — "if two neighboring key values are referencing to
  the same tuple, one of this values can be omitted" (the struck-through
  entries of Figure 11);
* **matching matrix** — "multiple matchings of the same tuple pair …
  can be avoided by storing already executed matchings" (Figure 12),
  provided by :class:`MatchingMatrix` and already folded into
  :func:`repro.reduction.snm.window_pairs`.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from repro.pdb.relations import XRelation
from repro.pdb.xtuples import XTuple
from repro.reduction.keys import (
    SubstringKey,
    alternative_key_distribution,
)
from repro.reduction.plan import (
    CandidatePlan,
    plan_from_window,
    planning_view,
)
from repro.reduction.snm import window_pairs


class MatchingMatrix:
    """The Figure-12 matrix: which pairs were already matched.

    A symmetric boolean structure over tuple ids; pairs are normalized so
    ``record`` / ``seen`` are order-insensitive.
    """

    def __init__(self) -> None:
        self._seen: set[tuple[str, str]] = set()

    @staticmethod
    def _normalize(left: str, right: str) -> tuple[str, str]:
        return (left, right) if left <= right else (right, left)

    def seen(self, left: str, right: str) -> bool:
        """Whether the pair was recorded before."""
        return self._normalize(left, right) in self._seen

    def record(self, left: str, right: str) -> bool:
        """Record the pair; returns ``True`` if it was new."""
        pair = self._normalize(left, right)
        if pair in self._seen:
            return False
        self._seen.add(pair)
        return True

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return self._normalize(*pair) in self._seen

    def pairs(self) -> frozenset[tuple[str, str]]:
        """All recorded pairs."""
        return frozenset(self._seen)


class AlternativeSorting:
    """The sorting-alternatives strategy as a pair generator.

    Parameters
    ----------
    key:
        Sorting-key specification.
    window:
        SNM window size (≥ 2).
    all_alternatives:
        ``True`` (default) creates keys for *all* alternatives; ``False``
        uses only each x-tuple's most probable alternative — the paper
        allows both ("all (or the most probable)").
    neighbor_dedup:
        Whether to drop a sorted entry whose predecessor references the
        same tuple (Figure 11's struck-through entries).
    """

    def __init__(
        self,
        key: SubstringKey,
        window: int = 3,
        *,
        all_alternatives: bool = True,
        neighbor_dedup: bool = True,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self._key = key
        self._window = window
        self._all_alternatives = all_alternatives
        self._neighbor_dedup = neighbor_dedup

    # ------------------------------------------------------------------
    # Entry construction
    # ------------------------------------------------------------------

    def entries_for_xtuple(self, xtuple: XTuple) -> list[tuple[str, str]]:
        """``(key value, tuple id)`` entries contributed by one x-tuple.

        Every alternative contributes its (possibly several, if attribute
        values are uncertain) key values; duplicate keys within one
        x-tuple are collapsed — matching a tuple with itself is
        meaningless.
        """
        alternatives: Sequence = xtuple.alternatives
        if not self._all_alternatives:
            best = max(alternatives, key=lambda alt: alt.probability)
            alternatives = [best]
        keys: list[str] = []
        for alternative in alternatives:
            for key_value, _ in alternative_key_distribution(
                alternative, self._key
            ):
                keys.append(key_value)
        deduped: list[str] = []
        for key_value in keys:
            if key_value not in deduped:
                deduped.append(key_value)
        return [(key_value, xtuple.tuple_id) for key_value in deduped]

    def sorted_entries(self, relation: XRelation) -> list[tuple[str, str]]:
        """All entries of the relation in key order (Figure 11, right).

        The sort is stable, so each tuple's alternatives keep their
        relative order under equal keys — the layout the figure shows.
        """
        entries: list[tuple[str, str]] = []
        for xtuple in planning_view(relation, self._key.attributes):
            entries.extend(self.entries_for_xtuple(xtuple))
        entries.sort(key=lambda entry: entry[0])
        return entries

    def deduped_entries(self, relation: XRelation) -> list[tuple[str, str]]:
        """Sorted entries after neighbor dedup."""
        entries = self.sorted_entries(relation)
        if not self._neighbor_dedup:
            return entries
        kept: list[tuple[str, str]] = []
        for entry in entries:
            if kept and kept[-1][1] == entry[1]:
                continue
            kept.append(entry)
        return kept

    # ------------------------------------------------------------------
    # Pair generation
    # ------------------------------------------------------------------

    def pairs(self, relation: XRelation) -> Iterator[tuple[str, str]]:
        """Window pairs over the deduped entry sequence.

        Repeated tuple appearances make the matching matrix necessary;
        :func:`window_pairs` already suppresses self-pairs and repeats.
        """
        ordered_ids = [tuple_id for _, tuple_id in self.deduped_entries(relation)]
        return window_pairs(ordered_ids, self._window)

    def plan(self, relation: XRelation) -> CandidatePlan:
        """Spans of the sorted *entry* sequence as partitions.

        Entries repeat tuple ids (one per alternative key); the plan
        builder supplies the Figure-12 matching matrix globally, so a
        pair reachable from several spans is claimed by the first.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> from repro.reduction.keys import SubstringKey
        >>> relation = XRelation("R", ("name",), [
        ...     XTuple("t1", (TupleAlternative({"name": "anna"}, 0.6),
        ...                   TupleAlternative({"name": "zoe"}, 0.4))),
        ...     XTuple("t2", (TupleAlternative({"name": "anne"}, 1.0),)),
        ...     XTuple("t3", (TupleAlternative({"name": "zara"}, 1.0),))])
        >>> reducer = AlternativeSorting(SubstringKey([("name", 1)]), window=2)
        >>> plan = reducer.plan(relation)
        >>> [p.label for p in plan]
        ['entries[0:4]']
        >>> list(plan.pairs())  # t1 sorts as both 'a…' and 'z…'
        [('t1', 't2'), ('t1', 't3')]
        """
        ordered_ids = [
            tuple_id for _, tuple_id in self.deduped_entries(relation)
        ]
        return plan_from_window(
            ordered_ids,
            self._window,
            relation_size=len(relation),
            source=repr(self),
            label="entries",
        )

    def __repr__(self) -> str:
        return (
            f"AlternativeSorting(key={self._key!r}, window={self._window}, "
            f"all={self._all_alternatives}, dedup={self._neighbor_dedup})"
        )
