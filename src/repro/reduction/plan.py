"""Execution planning for the reduction→matching seam.

The Section-V reducers know their block/window structure, but the
legacy ``pairs(relation)`` protocol flattens it into one anonymous pair
stream — so batched detection could only cut it into blind chunks,
and an incremental refresh could not tell which part of the stream a
changed tuple touches.  This module makes the structure explicit:

* :class:`CandidatePartition` — one schedulable unit of candidate pairs
  (a block, a window span, one multi-pass world) together with the
  member tuple ids it touches;
* :class:`CandidatePlan` — the ordered, duplicate-free sequence of
  partitions a reducer produces for one relation;
* :class:`PlanBuilder` — the shared constructor enforcing the pipeline
  invariants (pairs normalized ``left <= right``, self-pairs dropped,
  global first-occurrence dedup), so a plan's concatenated pair sequence
  is *exactly* the sequence the legacy ``detect`` loop would have
  compared — planned execution stays bitwise-equivalent to the serial
  seed pipeline; block partitions can be memoized across plans by
  ``(label, members)``, so a session refresh rebuilds touched blocks
  only;
* :func:`plan_candidates` — planner entry point with a single-partition
  fallback for legacy ``pairs()``-only reducers;
* :func:`planning_view` — the storage pushdown seam: key-extraction
  passes scan only the keyed attributes' columns of stores that
  support projection (the columnar backend);
* :func:`tuple_keys` — the certain-key pass over that view, memoized
  per tuple on session overlays so a refresh re-keys changed tuples
  only;
* :func:`tuple_fingerprint` / :func:`partition_fingerprint` /
  :func:`plan_fingerprints` / :func:`delta_plan` — content fingerprints
  over a partition's decision-relevant state (pairs + member tuple
  contents) and the delta-plan entry point, the basis of incremental
  re-detection: a refresh executes only partitions whose fingerprint
  changed and provably reuses retained decisions for the rest (a
  partition planned again over unchanged members keeps its digest).

Partitions and plans additionally carry optional *source tags*
(:attr:`CandidatePartition.sources`), set when a plan is built over a
multi-source view — the signal consolidation runs prune single-source
partitions by.

Every reducer in :mod:`repro.reduction` implements ``plan(relation)``
on top of :func:`plan_from_blocks` / :func:`plan_from_window`; the
engine in :mod:`repro.matching.executor` decides whole partitions, in
plan order.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Iterator, MutableMapping, Sequence
from dataclasses import dataclass, replace
from itertools import chain, combinations
from typing import Collection, Mapping, Protocol, runtime_checkable

from repro.pdb.storage.base import fetch_tuples

#: Pair-count target per partition for window-family planners, chosen so
#: partitions stay large enough to amortize per-partition bookkeeping and
#: small enough that a session refresh re-executes only the spans an
#: ingest touched.
DEFAULT_PARTITION_PAIRS = 2048

#: Members fetched per batch during vocabulary extraction, so planning
#: passes never pin more than this many decoded tuples of an
#: out-of-core store at once — even for partitions spanning the whole
#: relation (full comparison, legacy single-partition fallbacks).
VOCABULARY_BATCH_MEMBERS = 512


def ordered_pair(left: str, right: str) -> tuple[str, str]:
    """The pipeline-wide pair normalization: ``left <= right``.

    Single source of truth — the plan-equals-legacy-stream invariant
    holds only while every layer (reducers, builder, detector) orders
    pairs identically.
    """
    return (left, right) if left <= right else (right, left)


@dataclass(frozen=True)
class CandidatePartition:
    """One schedulable unit of candidate pairs.

    Attributes
    ----------
    label:
        Human-readable origin of the partition (block key, window span,
        world index) for logs and streamed result slices.
    pairs:
        The partition's candidate pairs, normalized ``left <= right``,
        in emission order, globally unique across the whole plan.
    members:
        Tuple ids appearing in :attr:`pairs`, in first-occurrence order
        (the deterministic base of vocabulary extraction).
    sources:
        Source tags of the relations the members come from, in
        first-occurrence order — set by multi-source planning
        (:func:`repro.matching.executor.multisource.plan_sources`);
        ``None`` for single-relation plans.  A single-source tag on a
        partition of a multi-source plan proves the partition can
        contribute no cross-source pair — the pruning signal of
        consolidation-only runs.
    """

    label: str
    pairs: tuple[tuple[str, str], ...]
    members: tuple[str, ...]
    sources: tuple[str, ...] | None = None

    def __len__(self) -> int:
        return len(self.pairs)

    def __repr__(self) -> str:
        tagged = (
            f", sources={'×'.join(self.sources)}" if self.sources else ""
        )
        return (
            f"CandidatePartition({self.label!r}, pairs={len(self.pairs)}, "
            f"members={len(self.members)}{tagged})"
        )


@dataclass(frozen=True)
class CandidatePlan:
    """A reducer's partitioned candidate search space for one relation.

    The concatenation of the partitions' pair sequences is duplicate-free
    and equals the legacy ``pairs()`` emission order after the pipeline's
    normalization — scheduling whole partitions therefore reorders
    *work*, never *results*.
    """

    partitions: tuple[CandidatePartition, ...]
    relation_size: int
    source: str
    #: Source tags of a multi-source plan (union order); ``None`` for
    #: single-relation plans.
    source_names: tuple[str, ...] | None = None

    @property
    def total_pairs(self) -> int:
        """Candidate pairs across all partitions."""
        return sum(len(p.pairs) for p in self.partitions)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All candidate pairs in plan order."""
        for partition in self.partitions:
            yield from partition.pairs

    def __iter__(self) -> Iterator[CandidatePartition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def __repr__(self) -> str:
        return (
            f"CandidatePlan({self.source}, partitions={len(self.partitions)}, "
            f"pairs={self.total_pairs})"
        )


@runtime_checkable
class PlanningReducer(Protocol):
    """Reducers that expose their block/window structure as a plan."""

    def plan(self, relation) -> CandidatePlan:  # pragma: no cover
        ...


# ----------------------------------------------------------------------
# Projection — the storage→planner pushdown seam
# ----------------------------------------------------------------------


def planning_view(relation, attributes: Iterable[str]):
    """The cheapest scan of *relation* that covers *attributes*.

    Key-extraction passes read nothing but the key attributes and the
    alternative probabilities, so a store that can serve an attribute
    subset without decoding whole tuples (``project`` — the columnar
    backend, and composites forwarding it) hands back a projection;
    anything else is returned unchanged.  Either way iteration order,
    tuple ids and the selected values are identical, so plans built
    over the view are bitwise-identical to plans built over the
    relation.
    """
    project = getattr(relation, "project", None)
    if not callable(project):
        return relation
    try:
        return project(tuple(attributes))
    except (KeyError, TypeError):
        # Attributes outside the store's schema (or a non-conforming
        # project signature): scan the full relation instead.
        return relation


def tuple_keys(relation, key, strategy) -> list[tuple[str, str]]:
    """``(tuple id, certain key value)`` per tuple, in iteration order.

    The key pass of certain-key blocking and sorting: *strategy* (the
    conflict resolution, e.g. most probable key) applied to every tuple
    of the :func:`planning_view`.  A store exposing ``key_memo`` (the
    session overlay, which invalidates an id's entries when it changes)
    keeps the computed keys: once its memo is warm only ids missing
    from it are fetched — in :data:`VOCABULARY_BATCH_MEMBERS` batches —
    and keyed, and the result walks ``tuple_ids``, the same order the
    scan would have produced.
    """
    key_memo = getattr(relation, "key_memo", None)
    memo = key_memo(key, strategy) if callable(key_memo) else None
    if not memo:
        keyed = [
            (xtuple.tuple_id, strategy(xtuple, key))
            for xtuple in planning_view(relation, key.attributes)
        ]
        if memo is not None:
            memo.update(keyed)
            relation.keys_computed += len(keyed)
        return keyed
    tuple_ids = relation.tuple_ids
    missing = [tuple_id for tuple_id in tuple_ids if tuple_id not in memo]
    for start in range(0, len(missing), VOCABULARY_BATCH_MEMBERS):
        batch = missing[start : start + VOCABULARY_BATCH_MEMBERS]
        working_set = fetch_tuples(relation, batch)
        for tuple_id in batch:
            memo[tuple_id] = strategy(working_set[tuple_id], key)
    relation.keys_computed += len(missing)
    return [(tuple_id, memo[tuple_id]) for tuple_id in tuple_ids]


class PlanBuilder:
    """Accumulates partitions under the pipeline's pair invariants.

    One builder per plan: the dedup set spans partitions, so a pair
    reachable through several blocks/worlds lands in the first partition
    that emits it — exactly where the legacy flattened stream would have
    compared it.

    Blocks added through :meth:`add_block` skip that set while every
    block so far is duplicate-free and disjoint from all earlier ones:
    such a block cannot lose a pair to the dedup, so its partition is a
    pure function of ``(label, members)``.  An optional *memo* maps
    those keys to partitions an earlier plan built; :meth:`build`
    leaves it holding exactly this plan's entries.  At the first block
    that overlaps earlier members the dedup set is built from the
    partitions so far and every later partition takes :meth:`add`.
    """

    def __init__(
        self,
        memo: MutableMapping[
            tuple[str, tuple[str, ...]], CandidatePartition
        ] | None = None,
    ) -> None:
        #: Pairs claimed so far; ``None`` until a partition needs it.
        self._seen: set[tuple[str, str]] | None = None
        #: Members of the disjoint blocks added while ``_seen`` is None.
        self._members: set[str] = set()
        self._partitions: list[CandidatePartition] = []
        self._memo = memo
        self._entries: dict[
            tuple[str, tuple[str, ...]], CandidatePartition
        ] = {}

    def _claimed(self) -> set[tuple[str, str]]:
        seen = self._seen
        if seen is None:
            seen = self._seen = {
                pair
                for partition in self._partitions
                for pair in partition.pairs
            }
        return seen

    def add(
        self, label: str, pairs: Iterable[tuple[str, str]]
    ) -> int:
        """Add one partition; returns how many unique pairs it kept.

        Self-pairs and pairs already claimed by an earlier partition are
        dropped; empty partitions are not recorded.
        """
        seen = self._claimed()
        unique: list[tuple[str, str]] = []
        for left, right in pairs:
            if left == right:
                continue
            # ordered_pair, inlined: this loop runs once per candidate.
            pair = (left, right) if left <= right else (right, left)
            if pair in seen:
                continue
            seen.add(pair)
            unique.append(pair)
        if unique:
            self._partitions.append(
                CandidatePartition(
                    label=str(label),
                    pairs=tuple(unique),
                    members=tuple(dict.fromkeys(chain.from_iterable(unique))),
                )
            )
        return len(unique)

    def add_block(self, label: str, members: Sequence[str]) -> int:
        """Add one block's within-block pairs (as :meth:`add` would).

        Reuses the memo's partition for ``(label, members)`` while the
        blocks added so far are disjoint; see the class docs.
        """
        members = tuple(members)
        if len(members) < 2:  # a single member forms no pair
            return 0
        if self._seen is not None or not self._disjoint(members):
            return self.add(label, within_block_pairs(members))
        key = (str(label), members)
        partition = self._memo.get(key) if self._memo is not None else None
        if partition is None:
            pairs = tuple(
                (left, right) if left <= right else (right, left)
                for left, right in combinations(members, 2)
            )
            partition = CandidatePartition(
                label=key[0],
                pairs=pairs,
                members=tuple(dict.fromkeys(chain.from_iterable(pairs))),
            )
        self._entries[key] = partition
        self._partitions.append(partition)
        return len(partition)

    def _disjoint(self, members: tuple[str, ...]) -> bool:
        """Record *members*; whether they are duplicate-free and new."""
        known = len(self._members)
        self._members.update(members)
        return len(self._members) == known + len(members)

    def build(self, *, relation_size: int, source: str) -> CandidatePlan:
        """Finalize the plan (the builder can be discarded afterwards)."""
        if self._memo is not None:
            self._memo.clear()
            self._memo.update(self._entries)
        return CandidatePlan(
            partitions=tuple(self._partitions),
            relation_size=relation_size,
            source=source,
        )


def within_block_pairs(
    members: Sequence[str],
) -> Iterator[tuple[str, str]]:
    """All unordered pairs inside one block, in enumeration order."""
    return combinations(members, 2)


def window_span_pairs(
    ordered_ids: Sequence[str], window: int, start: int, end: int
) -> Iterator[tuple[str, str]]:
    """Sliding-window pairs whose *left* index lies in ``[start, end)``.

    Mirrors :func:`repro.reduction.snm.window_pairs` cell for cell; the
    caller's :class:`PlanBuilder` supplies the self-pair skip and the
    matching-matrix dedup.
    """
    length = len(ordered_ids)
    for index in range(start, end):
        left = ordered_ids[index]
        for offset in range(1, window):
            follower = index + offset
            if follower >= length:
                break
            yield left, ordered_ids[follower]


def plan_from_blocks(
    blocks: Mapping[str, Sequence[str]],
    *,
    relation_size: int,
    source: str,
    prefix: str = "block",
    memo: MutableMapping[tuple[str, tuple[str, ...]], CandidatePartition]
    | None = None,
) -> CandidatePlan:
    """One partition per block, in block-insertion order.

    *memo* maps ``(label, members)`` to the partition an earlier plan
    built for that block (see :class:`PlanBuilder`); a session overlay
    passes one so a refresh rebuilds only the blocks an ingest touched.
    """
    builder = PlanBuilder(memo)
    for key, members in blocks.items():
        if len(members) > 1:  # a single member forms no pair
            builder.add_block(f"{prefix}:{key}", members)
    return builder.build(relation_size=relation_size, source=source)


def add_window_spans(
    builder: PlanBuilder,
    ordered_ids: Sequence[str],
    window: int,
    *,
    target_pairs: int = DEFAULT_PARTITION_PAIRS,
    label: str = "rows",
) -> None:
    """Append one sliding-window pass to *builder* as contiguous row spans.

    Row spans keep key-adjacent tuples — whose values the window will
    compare against each other — in the same partition, so a chunk's
    cache working set covers one neighborhood of the sort order.
    Multi-pass strategies call this once per world on a shared builder.
    """
    per_row = max(1, window - 1)
    rows_per_partition = max(1, target_pairs // per_row)
    length = len(ordered_ids)
    start = 0
    while start < length:
        end = min(length, start + rows_per_partition)
        builder.add(
            f"{label}[{start}:{end}]",
            window_span_pairs(ordered_ids, window, start, end),
        )
        start = end


def plan_from_window(
    ordered_ids: Sequence[str],
    window: int,
    *,
    relation_size: int,
    source: str,
    target_pairs: int = DEFAULT_PARTITION_PAIRS,
    label: str = "rows",
) -> CandidatePlan:
    """A finished single-pass plan of window spans (see :func:`add_window_spans`)."""
    builder = PlanBuilder()
    add_window_spans(
        builder,
        ordered_ids,
        window,
        target_pairs=target_pairs,
        label=label,
    )
    return builder.build(relation_size=relation_size, source=source)


def plan_candidates(reducer, relation) -> CandidatePlan:
    """The execution plan of any reducer.

    Planning reducers expose their own structure through
    ``plan(relation)``; legacy ``pairs()``-only generators fall back to
    a single partition holding the whole (normalized, deduplicated)
    stream, which schedules exactly like the pre-planner pipeline.
    """
    plan_method = getattr(reducer, "plan", None)
    if callable(plan_method):
        plan = plan_method(relation)
        if not isinstance(plan, CandidatePlan):
            raise TypeError(
                f"{reducer!r}.plan() returned {type(plan).__name__}, "
                "expected CandidatePlan"
            )
        return plan
    builder = PlanBuilder()
    builder.add("all", reducer.pairs(relation))
    return builder.build(relation_size=len(relation), source=repr(reducer))


def members_of_pairs(
    pairs: Sequence[tuple[str, str]],
) -> tuple[str, ...]:
    """Tuple ids of a pair sequence, in first-occurrence order."""
    members: dict[str, None] = {}
    for left, right in pairs:
        members[left] = None
        members[right] = None
    return tuple(members)


# ----------------------------------------------------------------------
# Partition fingerprints (incremental detection support)
# ----------------------------------------------------------------------

#: Digest size of the content fingerprints below.  16 bytes keeps the
#: per-partition index small while collisions stay out of reach for any
#: realistic plan (2^64 partitions to a birthday collision).
_FINGERPRINT_BYTES = 16


def tuple_fingerprint(xtuple) -> str:
    """Content fingerprint of one x-tuple.

    Hashes the tuple's *exact* serialized form — id, alternatives in
    order, per-attribute values under the order-preserving segment
    codec — so two tuples fingerprint equal iff a decision procedure
    could not tell them apart.  The incremental layer uses this to
    detect modified tuples without diffing values attribute by
    attribute.
    """
    from repro.pdb.io import encode_xtuple

    document = json.dumps(
        encode_xtuple(xtuple, exact=True),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.blake2b(
        document.encode("utf-8"), digest_size=_FINGERPRINT_BYTES
    ).hexdigest()


def partition_fingerprint(
    partition: CandidatePartition,
    tuple_fingerprints: Mapping[str, str],
) -> str:
    """Fingerprint of one partition's *decision-relevant* state.

    Covers the partition's pair sequence and every member tuple's
    content fingerprint — exactly the inputs a partition's decisions
    are a pure function of (each decision depends only on its two
    x-tuples and the configured procedure).  Labels and source tags are
    deliberately excluded: a relabeled or re-tagged partition with the
    same pairs over the same tuple contents decides identically, so its
    retained decisions stay reusable.

    Two partitions of one plan can never fingerprint equal (the builder
    dedups pairs globally, so their pair sequences differ); across plan
    generations, an equal fingerprint proves the retained decisions for
    the old partition are bitwise-valid for the new one.
    """
    return _partition_digest(
        partition,
        tuple(tuple_fingerprints[member] for member in partition.members),
    )


def _partition_digest(
    partition: CandidatePartition, member_fingerprints: tuple[str, ...]
) -> str:
    """:func:`partition_fingerprint` from the members' fingerprints."""
    # The digest reads ``left \x00 right \x01`` (UTF-8) per pair, then
    # \x02 and the member fingerprints: one joined buffer per part feeds
    # the streaming hash the same bytes as per-piece updates would.
    digest = hashlib.blake2b(digest_size=_FINGERPRINT_BYTES)
    digest.update(
        "".join(
            f"{left}\x00{right}\x01" for left, right in partition.pairs
        ).encode("utf-8")
    )
    digest.update(b"\x02")
    digest.update("".join(member_fingerprints).encode("ascii"))
    return digest.hexdigest()


def plan_fingerprints(
    relation,
    plan: CandidatePlan,
    *,
    tuple_fingerprints: MutableMapping[str, str] | None = None,
    partition_digests: MutableMapping[int, tuple] | None = None,
) -> tuple[str, ...]:
    """Per-partition fingerprints of a plan, in plan order.

    Member tuples are fetched in :data:`VOCABULARY_BATCH_MEMBERS`-sized
    working sets (out-of-core stores never decode more than a batch at
    once).  *tuple_fingerprints* is an optional cross-call memo: ids
    already present are trusted without fetching the tuple — a session
    that invalidates the memo on upsert/delete pays one hash per
    *changed* tuple per refresh, not one per tuple.

    *partition_digests* is an optional memo of the previous call's
    digests, ``id(partition) → (partition, member fingerprints,
    digest)``: a partition object planned again whose members'
    fingerprints are unchanged keeps its digest unhashed — the digest
    covers exactly its pairs and those fingerprints.  It is left
    holding this plan's entries only.
    """
    memo: MutableMapping[str, str] = (
        tuple_fingerprints if tuple_fingerprints is not None else {}
    )
    previous = partition_digests if partition_digests is not None else {}
    entries: dict[int, tuple] = {}
    fingerprints: list[str] = []
    for partition in plan.partitions:
        members = partition.members
        missing = [m for m in members if m not in memo]
        for start in range(0, len(missing), VOCABULARY_BATCH_MEMBERS):
            batch = missing[start : start + VOCABULARY_BATCH_MEMBERS]
            working_set = fetch_tuples(relation, batch)
            for tuple_id in batch:
                memo[tuple_id] = tuple_fingerprint(working_set[tuple_id])
        member_fingerprints = tuple(map(memo.__getitem__, members))
        entry = previous.get(id(partition))
        if (
            entry is not None
            and entry[0] is partition
            and entry[1] == member_fingerprints
        ):
            digest = entry[2]
        else:
            digest = _partition_digest(partition, member_fingerprints)
        if partition_digests is not None:
            entries[id(partition)] = (partition, member_fingerprints, digest)
        fingerprints.append(digest)
    if partition_digests is not None:
        partition_digests.clear()
        partition_digests.update(entries)
    return tuple(fingerprints)


def delta_plan(
    plan: CandidatePlan,
    fingerprints: Sequence[str],
    retained: Collection[str],
) -> CandidatePlan:
    """The sub-plan an incremental refresh must actually execute.

    Keeps, in plan order, exactly the partitions whose fingerprint is
    *not* in *retained* (the fingerprints a session holds reusable
    decisions for) — new blocks, blocks whose membership or member
    contents changed, window spans shifted by an insertion.  Partitions
    with a retained fingerprint are provably untouched, so the delta
    plan never contains one; their decisions merge back unexecuted.
    """
    if len(fingerprints) != len(plan.partitions):
        raise ValueError(
            f"{len(fingerprints)} fingerprints for "
            f"{len(plan.partitions)} partitions"
        )
    stale = tuple(
        partition
        for partition, fingerprint in zip(plan.partitions, fingerprints)
        if fingerprint not in retained
    )
    if len(stale) == len(plan.partitions):
        return plan
    return replace(
        plan,
        partitions=stale,
        source=f"{plan.source} [delta]",
    )
