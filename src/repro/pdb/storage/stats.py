"""Zone maps for x-tuple stores.

A *zone map* is the classic columnar-warehouse trick (Todor et al.,
"Making massive probabilistic databases practical"): per attribute,
keep the minimum and maximum value bytes, so a reader can decide
whether a whole source can possibly contain a key *without touching
any tuple data*.  The probabilistic twist is that one attribute cell is
a distribution, so the map ranges over **every outcome** of every
alternative:

* plain outcomes contribute their ``str`` form (the same form
  :class:`~repro.reduction.keys.SubstringKey` slices prefixes from);
* ⊥ contributes the empty string (⊥ keys as ``""``), tracked as
  ``null_count`` so the lower bound widens to ``""``;
* pattern values make the range *unbounded* — a pattern can expand to
  strings outside any recorded bounds, so a zone with patterns never
  licenses a prune.

Because string prefixing is order-monotone (``a <= b`` implies
``a[:n] <= b[:n]``), the per-attribute ``[min, max]`` interval soundly
bounds every first-key-part prefix a key strategy can produce from the
zone — the property :func:`AttributeStatistics.key_range` packages and
cross-source pruning relies on.  Multi-part keys concatenate pieces of
*different* lengths, so only the first part is boundable; pruning on it
is a sound over-approximation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.pdb.relations import XRelation
from repro.pdb.values import NULL, PatternValue
from repro.pdb.xtuples import XTuple


@dataclass(frozen=True)
class AttributeStatistics:
    """Zone-map entry for one attribute of a store."""

    attribute: str
    #: Smallest / largest plain outcome (``str`` form); ``None`` when no
    #: plain outcome was observed (all-⊥ or empty column).
    min_value: str | None
    max_value: str | None
    #: ⊥ outcomes observed — any pins the lower bound at ``""``.
    null_count: int
    #: Pattern outcomes observed — any makes the range unbounded.
    pattern_count: int

    def key_range(self, length: int | None = None) -> tuple[str, str] | None:
        """Sound bounds on this attribute's key pieces, or ``None``.

        Returns the ``(lo, hi)`` interval containing every prefix of
        ``length`` characters a :class:`SubstringKey` part can extract
        from values summarized here; ``None`` means unbounded (pattern
        values present), which must never license a prune.  ⊥ keys as
        the empty string, so any null mass pins the lower bound at
        ``""``.

        >>> AttributeStatistics("name", "anna", "zoe", 0, 0).key_range(1)
        ('a', 'z')
        >>> AttributeStatistics("name", "anna", "zoe", 1, 0).key_range(1)
        ('', 'z')
        >>> AttributeStatistics("name", "anna", "zoe", 0, 1).key_range(1) is None
        True
        """
        if self.pattern_count > 0:
            return None
        lo = self.min_value if self.min_value is not None else ""
        hi = self.max_value if self.max_value is not None else ""
        if self.null_count > 0:
            lo = ""
        if length is not None:
            lo, hi = lo[:length], hi[:length]
        return (lo, hi)

    def to_dict(self) -> dict:
        return {
            "min": self.min_value,
            "max": self.max_value,
            "nulls": self.null_count,
            "patterns": self.pattern_count,
        }

    @classmethod
    def from_dict(cls, attribute: str, doc: Mapping) -> "AttributeStatistics":
        return cls(
            attribute=attribute,
            min_value=doc.get("min"),
            max_value=doc.get("max"),
            null_count=doc.get("nulls", 0),
            pattern_count=doc.get("patterns", 0),
        )


@dataclass(frozen=True)
class StoreStatistics:
    """Store-level zone maps, one per attribute.

    Produced at spill time by the columnar backend (and on demand by
    :func:`relation_statistics` for in-memory relations), consumed by
    the cross-source pruning of
    :mod:`repro.matching.executor.multisource`.
    """

    #: Zone map per schema attribute.
    attributes: Mapping[str, AttributeStatistics]

    def key_range(
        self, attribute: str, length: int | None = None
    ) -> tuple[str, str] | None:
        """Sound first-key-part bounds for *attribute* (``None`` =
        unbounded / unknown attribute — never prune on it)."""
        statistics = self.attributes.get(attribute)
        if statistics is None:
            return None
        return statistics.key_range(length)

    def to_dict(self) -> dict:
        return {
            "zones": {
                attribute: statistics.to_dict()
                for attribute, statistics in self.attributes.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "StoreStatistics":
        """Read a manifest's ``statistics`` entry; keys other than the
        zones' ``min``/``max``/``nulls``/``patterns`` are ignored."""
        return cls(
            attributes={
                attribute: AttributeStatistics.from_dict(attribute, entry)
                for attribute, entry in doc.get("zones", {}).items()
            },
        )


class StatisticsBuilder:
    """Single-pass zone-map accumulator: call :meth:`observe` per
    x-tuple while streaming, then :meth:`build`."""

    def __init__(self, attributes: Iterable[str]) -> None:
        #: attribute → [min, max, nulls, patterns]
        self._zones: dict[str, list] = {
            attribute: [None, None, 0, 0] for attribute in attributes
        }

    def observe(self, xtuple: XTuple) -> None:
        zones = self._zones
        for alternative in xtuple.alternatives:
            for attribute in alternative.attributes:
                zone = zones.get(attribute)
                if zone is None:
                    continue  # outside the summarized schema
                for outcome, _probability in alternative.value(
                    attribute
                ).items():
                    if outcome is NULL:
                        zone[2] += 1
                    elif isinstance(outcome, PatternValue):
                        zone[3] += 1
                    else:
                        text = str(outcome)
                        if zone[0] is None or text < zone[0]:
                            zone[0] = text
                        if zone[1] is None or text > zone[1]:
                            zone[1] = text

    def build(self) -> StoreStatistics:
        return StoreStatistics(
            attributes={
                attribute: AttributeStatistics(attribute, *zone)
                for attribute, zone in self._zones.items()
            },
        )


def merge_statistics(
    parts: Iterable[StoreStatistics],
) -> StoreStatistics | None:
    """Union zone maps: ranges widen, ⊥ and pattern counts add.

    Exactly the zone maps a single pass over the concatenated sources
    would produce, computed from per-source zone maps alone — how a
    multi-source view answers ``statistics()`` without streaming.
    Returns ``None`` for an empty part list or non-statistics entries.
    """
    collected = list(parts)
    if not collected or any(
        not isinstance(part, StoreStatistics) for part in collected
    ):
        return None
    attribute_names: dict[str, None] = {}
    for part in collected:
        attribute_names.update(dict.fromkeys(part.attributes))
    zones: dict[str, AttributeStatistics] = {}
    for attribute in attribute_names:
        entries = [
            part.attributes[attribute]
            for part in collected
            if attribute in part.attributes
        ]
        minima = [e.min_value for e in entries if e.min_value is not None]
        maxima = [e.max_value for e in entries if e.max_value is not None]
        zones[attribute] = AttributeStatistics(
            attribute=attribute,
            min_value=min(minima) if minima else None,
            max_value=max(maxima) if maxima else None,
            null_count=sum(e.null_count for e in entries),
            pattern_count=sum(e.pattern_count for e in entries),
        )
    return StoreStatistics(attributes=zones)


def relation_statistics(relation) -> StoreStatistics | None:
    """Zone maps of *relation*, or ``None`` when it has none to offer.

    Stores that fold zone maps at spill time (the columnar backend,
    and multi-source views whose every source does) answer from their
    manifests without touching tuple data; an in-memory
    :class:`~repro.pdb.relations.XRelation` is streamed once — values
    only, no pair work.  Anything else (a session overlay, any backend
    that would have to decode every tuple) returns ``None``, which
    never licenses a prune.
    """
    statistics = getattr(relation, "statistics", None)
    if callable(statistics):
        computed = statistics()
        if isinstance(computed, StoreStatistics):
            return computed
    if not isinstance(relation, XRelation):
        return None
    builder = StatisticsBuilder(relation.schema.attributes)
    for xtuple in relation:
        builder.observe(xtuple)
    return builder.build()


__all__ = [
    "AttributeStatistics",
    "StatisticsBuilder",
    "StoreStatistics",
    "merge_statistics",
    "relation_statistics",
]
