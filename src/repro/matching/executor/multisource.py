"""Multi-source planning: the paper's consolidation scenario at scale.

The headline workload of the paper is integrating *autonomous
probabilistic sources* — ℛ34 = ℛ3 ∪ ℛ4 (Section II) — and the seed
pipeline handled it by materializing that union in memory.  This module
plans source pairs without the copy:

* :func:`plan_sources` runs the configured reducer's planner over a
  :class:`~repro.pdb.storage.MultiSourceStore` *view* of the sources
  (iteration order = union order, so the plan — and therefore every
  decision — is bitwise identical to planning the materialized union)
  and tags each partition with the sources its members come from.
  Tags are computed from the view's id → source map alone; no tuple is
  decoded, so two spilled stores plan without either being loaded.
* :func:`cross_source_plan` restricts a tagged plan to the
  consolidation question proper — which records of source A duplicate
  records of source B — by *pruning* every partition whose tag names a
  single source (for key-structured reducers that is exactly a key
  range the other source never reaches: a block key with members from
  one source, a sort-order span inside one source's key range) and
  filtering mixed partitions to their cross-source pairs.  The
  surviving pair sequence is a subsequence of the union plan's, so
  cross-only decisions equal the union run's decisions filtered to
  cross pairs.

>>> from repro.pdb.relations import XRelation
>>> from repro.pdb.storage import MultiSourceStore
>>> from repro.pdb.xtuples import TupleAlternative, XTuple
>>> from repro.reduction import CertainKeyBlocking, SubstringKey
>>> def rel(name, *rows):
...     return XRelation(name, ("name",), [
...         XTuple(t, (TupleAlternative({"name": n}, 1.0),))
...         for t, n in rows])
>>> view = MultiSourceStore([
...     rel("R1", ("a1", "anna"), ("a2", "bob")),
...     rel("R2", ("b1", "anne"), ("b2", "bert"))])
>>> plan = plan_sources(CertainKeyBlocking(SubstringKey([("name", 1)])), view)
>>> [(p.label, p.sources, p.pairs) for p in plan]
[('block:a', ('R1', 'R2'), (('a1', 'b1'),)), ('block:b', ('R1', 'R2'), (('a2', 'b2'),))]
>>> cross = cross_source_plan(plan, view)
>>> list(cross.pairs()) == list(plan.pairs())  # all pairs were cross
True
"""

from __future__ import annotations

from dataclasses import replace

from repro.pdb.storage import MultiSourceStore, XTupleStore
from repro.pdb.storage.stats import relation_statistics
from repro.reduction.keys import SubstringKey
from repro.reduction.plan import (
    CandidatePartition,
    CandidatePlan,
    members_of_pairs,
    plan_candidates,
)


def source_tagged(view) -> bool:
    """Whether *view* can tag partitions with member sources.

    Duck-typed on the ``source_of`` / ``source_names`` surface so that
    both :class:`~repro.pdb.storage.MultiSourceStore` and overlay views
    that forward it (a :class:`~repro.pdb.storage.SessionStore` whose
    appended delta forms one extra source) plan source-tagged.
    """
    return callable(getattr(view, "source_of", None)) and (
        getattr(view, "source_names", None) is not None
    )


def partition_sources(
    partition: CandidatePartition, view: MultiSourceStore
) -> tuple[str, ...]:
    """Source tags of a partition's members, in first-occurrence order.

    Metadata-only: consults the view's id → source map, never a tuple.
    """
    return tuple(dict.fromkeys(map(view.source_of, partition.members)))


def tag_plan_sources(
    plan: CandidatePlan, view: MultiSourceStore
) -> CandidatePlan:
    """The same plan with every partition source-tagged.

    A view exposing ``tagged_partitions`` (the session overlay) memoizes
    the tagged copies, ``id(partition) → (partition, tagged copy)``: a
    partition object the planner reused keeps its copy — a tuple id
    never changes source within a session — and only new partitions are
    tagged, each counted in the view's ``partitions_built``.  The memo
    is left holding this plan's entries only.
    """
    memo = getattr(view, "tagged_partitions", None)
    previous = memo if memo is not None else {}
    entries: dict[int, tuple[CandidatePartition, CandidatePartition]] = {}
    tagged: list[CandidatePartition] = []
    built = 0
    for partition in plan.partitions:
        entry = previous.get(id(partition))
        if entry is not None and entry[0] is partition:
            copy = entry[1]
        else:
            copy = CandidatePartition(
                partition.label,
                partition.pairs,
                partition.members,
                partition_sources(partition, view),
            )
            built += 1
        entries[id(partition)] = (partition, copy)
        tagged.append(copy)
    if memo is not None:
        memo.clear()
        memo.update(entries)
        view.partitions_built += built
    return replace(
        plan, partitions=tuple(tagged), source_names=view.source_names
    )


def plan_sources(reducer, view: XTupleStore) -> CandidatePlan:
    """Plan a (possibly multi-source) store, tagging partition sources.

    For a :class:`~repro.pdb.storage.MultiSourceStore` the reducer
    plans the union *view* — the view's iteration order is the union's,
    so the plan equals the materialized-union plan partition for
    partition — and every partition is tagged with the sources its
    members come from.  Plain single stores plan as usual, untagged.
    """
    plan = plan_candidates(reducer, view)
    if isinstance(view, MultiSourceStore) or source_tagged(view):
        plan = tag_plan_sources(plan, view)
    return plan


def _prefix_successor(prefix: str) -> str | None:
    """Smallest string above every extension of *prefix* (``None`` = ∞)."""
    for index in range(len(prefix) - 1, -1, -1):
        code = ord(prefix[index])
        if code < 0x10FFFF:
            return prefix[:index] + chr(code + 1)
    return None


def _ranges_may_share_key(
    first: tuple[str, str] | None,
    second: tuple[str, str] | None,
    *,
    whole_key: bool,
) -> bool:
    """Whether two first-part zones can produce one equal block key.

    With *whole_key* (single-part keys) equal keys force equal first
    parts, so the closed intervals must intersect.  Multi-part keys
    concatenate pieces: equal keys only force one first part to prefix
    the other, so each zone is widened to ``[lo, successor(hi))`` — the
    interval covering every string extending a part in the zone —
    before intersecting.  ``None`` means unbounded: never prune.
    """
    if first is None or second is None:
        return True
    if whole_key:
        return first[0] <= second[1] and second[0] <= first[1]
    first_end = _prefix_successor(first[1])
    second_end = _prefix_successor(second[1])
    return (second_end is None or first[0] < second_end) and (
        first_end is None or second[0] < first_end
    )


def source_key_ranges(
    view: MultiSourceStore, key: SubstringKey
) -> list[tuple[str, str] | None]:
    """First-key-part zone per source, from statistics alone.

    Spilled sources answer from their spill-time zone maps without
    touching tuple data; in-memory relations stream their resident
    values once; a store without statistics (a manifest that records
    none, or any other backend that would have to decode every tuple)
    reports ``None`` — unbounded, never pruned (see
    :func:`~repro.pdb.storage.stats.relation_statistics`).
    """
    attribute, length = key.parts[0]
    ranges: list[tuple[str, str] | None] = []
    for store in view.stores:
        statistics = relation_statistics(store)
        ranges.append(
            None
            if statistics is None
            else statistics.key_range(attribute, length)
        )
    return ranges


def prune_disjoint_sources(
    view, reducer
) -> tuple[XTupleStore, tuple[str, ...]]:
    """Drop sources whose key zone overlaps *no* other source's.

    The plan-time embodiment of the paper's search-space reduction
    (Section V) applied *across sources*: an equality-blocking reducer
    (one exposing ``prune_key``) can only pair two sources inside a
    shared block key, so a source whose first-key-part zone — read
    from store statistics, no tuple fetched — is disjoint from every
    other source's cannot contribute a cross-source pair.  Its blocks
    are all single-source, which :func:`cross_source_plan` would drop
    *after* planning; dropping the source first means its tuples are
    never scanned at all.

    Returns ``(view, pruned source names)``.  The view is returned
    unchanged — no names pruned — when it is not a multi-source view,
    the reducer exposes no ``prune_key``, the key is not a substring
    key (derived transforms break prefix monotonicity), or statistics
    cannot prove any source disjoint.  When every source is pairwise
    disjoint one source is kept so downstream planning still has a
    view; its plan's partitions are all single-source and the cross
    filter empties them.
    """
    if not isinstance(view, MultiSourceStore) or len(view.stores) < 2:
        return view, ()
    key = getattr(reducer, "prune_key", None)
    if not isinstance(key, SubstringKey):
        return view, ()
    whole_key = len(key.parts) == 1
    ranges = source_key_ranges(view, key)
    kept = [
        index
        for index in range(len(ranges))
        if any(
            other != index
            and _ranges_may_share_key(
                ranges[index], ranges[other], whole_key=whole_key
            )
            for other in range(len(ranges))
        )
    ]
    if len(kept) == len(ranges):
        return view, ()
    if not kept:
        kept = [0]
    pruned = tuple(
        view.source_names[index]
        for index in range(len(ranges))
        if index not in set(kept)
    )
    survivor = MultiSourceStore(
        [view.stores[index] for index in kept], name=view.name
    )
    return survivor, pruned


def cross_source_plan(
    plan: CandidatePlan, view: MultiSourceStore
) -> CandidatePlan:
    """Restrict a tagged plan to cross-source candidate pairs.

    Partitions tagged with a single source are pruned outright — their
    key range exists in only one source, so they cannot contribute a
    cross-source pair and none of their tuples need touching.  Mixed
    partitions keep the (plan-ordered) subsequence of their pairs whose
    endpoints come from different sources; partitions left empty are
    dropped like the plan builder drops empty partitions.
    """
    kept: list[CandidatePartition] = []
    for partition in plan.partitions:
        sources = partition.sources
        if sources is None:
            raise ValueError(
                "cross_source_plan needs a source-tagged plan; build it "
                "with plan_sources over a MultiSourceStore"
            )
        if len(sources) < 2:
            continue
        cross = tuple(
            pair
            for pair in partition.pairs
            if view.source_of(pair[0]) != view.source_of(pair[1])
        )
        if not cross:
            continue
        if len(cross) == len(partition.pairs):
            kept.append(partition)
            continue
        members = members_of_pairs(cross)
        kept.append(
            CandidatePartition(
                label=partition.label,
                pairs=cross,
                members=members,
                sources=tuple(
                    dict.fromkeys(view.source_of(m) for m in members)
                ),
            )
        )
    return replace(
        plan,
        partitions=tuple(kept),
        source=f"{plan.source} [cross-source]",
    )


__all__ = [
    "cross_source_plan",
    "partition_sources",
    "plan_sources",
    "prune_disjoint_sources",
    "source_key_ranges",
    "source_tagged",
    "tag_plan_sources",
]
