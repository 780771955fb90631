"""Zone maps and key histograms for x-tuple stores.

A *zone map* is the classic columnar-warehouse trick (Todor et al.,
"Making massive probabilistic databases practical"): per attribute,
keep the minimum and maximum value bytes plus null / uncertain counts,
so a reader can decide whether a segment — or a whole source — can
possibly contain a key *without touching any tuple data*.  The
probabilistic twist is that one attribute cell is a distribution, so
the map ranges over **every outcome** of every alternative:

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

Histograms bucket plain outcomes by first character, giving the planner
a cheap density sketch per source (how many keys start with ``"m"``)
for cost decisions that pair counts alone cannot inform.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.pdb.values import NULL, PatternValue
from repro.pdb.xtuples import XTuple


@dataclass(frozen=True)
class AttributeStatistics:
    """Zone-map entry for one attribute of a store (or segment)."""

    attribute: str
    #: Smallest / largest plain outcome (``str`` form); ``None`` when no
    #: plain outcome was observed (all-⊥ or empty column).
    min_value: str | None
    max_value: str | None
    #: Attribute cells (alternative × attribute) with any ⊥ mass.
    null_count: int
    #: Attribute cells holding a distribution (more than one outcome).
    uncertain_count: int
    #: Pattern outcomes observed — any makes the range unbounded.
    pattern_count: int
    #: Attribute cells observed (one per alternative carrying the
    #: attribute).
    value_count: int
    #: Total ``str`` length of plain outcomes.
    total_bytes: int

    @property
    def bounded(self) -> bool:
        """Whether ``[min, max]`` really bounds every possible key."""
        return self.pattern_count == 0

    def key_range(self, length: int | None = None) -> tuple[str, str] | None:
        """Sound bounds on this attribute's key pieces, or ``None``.

        Returns the ``(lo, hi)`` interval containing every prefix of
        ``length`` characters a :class:`SubstringKey` part can extract
        from values summarized here; ``None`` means unbounded (pattern
        values present), which must never license a prune.  ⊥ keys as
        the empty string, so any null mass pins the lower bound at
        ``""``.
        """
        if not self.bounded:
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
            "uncertain": self.uncertain_count,
            "patterns": self.pattern_count,
            "values": self.value_count,
            "bytes": self.total_bytes,
        }

    @classmethod
    def from_dict(cls, attribute: str, doc: Mapping) -> "AttributeStatistics":
        return cls(
            attribute=attribute,
            min_value=doc.get("min"),
            max_value=doc.get("max"),
            null_count=doc.get("nulls", 0),
            uncertain_count=doc.get("uncertain", 0),
            pattern_count=doc.get("patterns", 0),
            value_count=doc.get("values", 0),
            total_bytes=doc.get("bytes", 0),
        )


def ranges_overlap(
    first: tuple[str, str] | None, second: tuple[str, str] | None
) -> bool:
    """Whether two key ranges can share a key (``None`` = unbounded)."""
    if first is None or second is None:
        return True
    return first[0] <= second[1] and second[0] <= first[1]


@dataclass(frozen=True)
class StoreStatistics:
    """Store-level statistics: zone maps + key histograms per attribute.

    Produced at spill time by the columnar backend (and on demand by
    :func:`relation_statistics` for in-memory relations), consumed by
    the planner's statistics hook (:mod:`repro.reduction.plan`) and the
    cross-source pruning of :mod:`repro.matching.executor.multisource`.
    """

    name: str
    #: X-tuples summarized.
    count: int
    #: Total alternatives across all x-tuples.
    alternative_count: int
    #: Zone map per schema attribute.
    attributes: Mapping[str, AttributeStatistics]
    #: First-character bucket counts of plain outcomes, per attribute.
    histograms: Mapping[str, Mapping[str, int]]

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
            "count": self.count,
            "alternatives": self.alternative_count,
            "zones": {
                attribute: statistics.to_dict()
                for attribute, statistics in self.attributes.items()
            },
            "histograms": {
                attribute: dict(buckets)
                for attribute, buckets in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, name: str, doc: Mapping) -> "StoreStatistics":
        return cls(
            name=name,
            count=doc.get("count", 0),
            alternative_count=doc.get("alternatives", 0),
            attributes={
                attribute: AttributeStatistics.from_dict(attribute, entry)
                for attribute, entry in doc.get("zones", {}).items()
            },
            histograms={
                attribute: dict(buckets)
                for attribute, buckets in doc.get("histograms", {}).items()
            },
        )


class StatisticsBuilder:
    """Single-pass accumulator feeding zone maps and histograms.

    One builder per scope (segment or whole store): call
    :meth:`observe` per x-tuple while streaming, then :meth:`build`.
    """

    def __init__(self, attributes: Iterable[str]) -> None:
        self._attributes = tuple(attributes)
        self._count = 0
        self._alternatives = 0
        self._min: dict[str, str | None] = dict.fromkeys(self._attributes)
        self._max: dict[str, str | None] = dict.fromkeys(self._attributes)
        self._nulls = dict.fromkeys(self._attributes, 0)
        self._uncertain = dict.fromkeys(self._attributes, 0)
        self._patterns = dict.fromkeys(self._attributes, 0)
        self._values = dict.fromkeys(self._attributes, 0)
        self._bytes = dict.fromkeys(self._attributes, 0)
        self._histograms: dict[str, dict[str, int]] = {
            attribute: {} for attribute in self._attributes
        }

    def observe(self, xtuple: XTuple) -> None:
        self._count += 1
        for alternative in xtuple.alternatives:
            self._alternatives += 1
            for attribute in alternative.attributes:
                if attribute not in self._values:
                    continue  # outside the summarized schema
                value = alternative.value(attribute)
                self._values[attribute] += 1
                outcomes = list(value.items())
                if len(outcomes) > 1:
                    self._uncertain[attribute] += 1
                for outcome, _probability in outcomes:
                    if outcome is NULL:
                        self._nulls[attribute] += 1
                        continue
                    if isinstance(outcome, PatternValue):
                        self._patterns[attribute] += 1
                        continue
                    text = str(outcome)
                    self._bytes[attribute] += len(text)
                    low = self._min[attribute]
                    if low is None or text < low:
                        self._min[attribute] = text
                    high = self._max[attribute]
                    if high is None or text > high:
                        self._max[attribute] = text
                    bucket = text[:1]
                    histogram = self._histograms[attribute]
                    histogram[bucket] = histogram.get(bucket, 0) + 1

    def build(self, name: str) -> StoreStatistics:
        return StoreStatistics(
            name=name,
            count=self._count,
            alternative_count=self._alternatives,
            attributes={
                attribute: AttributeStatistics(
                    attribute=attribute,
                    min_value=self._min[attribute],
                    max_value=self._max[attribute],
                    null_count=self._nulls[attribute],
                    uncertain_count=self._uncertain[attribute],
                    pattern_count=self._patterns[attribute],
                    value_count=self._values[attribute],
                    total_bytes=self._bytes[attribute],
                )
                for attribute in self._attributes
            },
            histograms={
                attribute: dict(self._histograms[attribute])
                for attribute in self._attributes
            },
        )


def merge_statistics(
    name: str, parts: Iterable[StoreStatistics]
) -> StoreStatistics | None:
    """Union statistics: counts add, ranges widen, histograms sum.

    Exactly the statistics a single pass over the concatenated sources
    would produce, computed from per-source zone maps alone — how a
    multi-source view answers ``statistics()`` without streaming.
    Returns ``None`` for an empty part list or non-statistics entries.
    """
    collected = list(parts)
    if not collected or any(
        not isinstance(part, StoreStatistics) for part in collected
    ):
        return None
    count = sum(part.count for part in collected)
    alternatives = sum(part.alternative_count for part in collected)
    attribute_names: dict[str, None] = {}
    for part in collected:
        for attribute in part.attributes:
            attribute_names[attribute] = None
    zones: dict[str, AttributeStatistics] = {}
    histograms: dict[str, dict[str, int]] = {}
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
            uncertain_count=sum(e.uncertain_count for e in entries),
            pattern_count=sum(e.pattern_count for e in entries),
            value_count=sum(e.value_count for e in entries),
            total_bytes=sum(e.total_bytes for e in entries),
        )
        buckets: dict[str, int] = {}
        for part in collected:
            for bucket, bucket_count in part.histograms.get(
                attribute, {}
            ).items():
                buckets[bucket] = buckets.get(bucket, 0) + bucket_count
        histograms[attribute] = buckets
    return StoreStatistics(
        name=name,
        count=count,
        alternative_count=alternatives,
        attributes=zones,
        histograms=histograms,
    )


def relation_statistics(relation) -> StoreStatistics:
    """Compute :class:`StoreStatistics` for any x-tuple store.

    Stores that precompute statistics at spill time (the columnar
    backend) answer through their own ``statistics()`` method instead;
    this fallback streams the relation once — values only, no pair
    work — so in-memory sources can join zone-map pruning too.
    """
    statistics = getattr(relation, "statistics", None)
    if callable(statistics):
        computed = statistics()
        if isinstance(computed, StoreStatistics):
            return computed
    builder = StatisticsBuilder(relation.schema.attributes)
    for xtuple in relation:
        builder.observe(xtuple)
    return builder.build(relation.name)


__all__ = [
    "AttributeStatistics",
    "StatisticsBuilder",
    "StoreStatistics",
    "merge_statistics",
    "ranges_overlap",
    "relation_statistics",
]
