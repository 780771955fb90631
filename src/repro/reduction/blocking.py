"""Blocking and its probabilistic adaptations (Section V-B, Figure 14).

"With blocking, the considered tuples are partitioned into mutually
exclusive blocks … only tuples in one block are compared with each
other."  For probabilistic data the paper lists four handlings, all
implemented here:

* **multi-pass blocking** over (finely chosen) possible worlds —
  :class:`MultiPassBlocking`;
* **certain keys via conflict resolution** (e.g. most probable
  alternative) — :class:`CertainKeyBlocking`;
* **alternative-key blocking** — an x-tuple is inserted into one block
  per alternative key value; within a block, repeated entries of the same
  tuple are removed (Figure 14) — :class:`AlternativeKeyBlocking`;
* **clustering of uncertain keys** — blocks from clustering the key
  *distributions* ([38]–[40]) — :class:`UncertainKeyClusteringBlocking`
  in :mod:`repro.reduction.uncertain_clustering`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from repro.pdb.relations import XRelation
from repro.pdb.worlds import PossibleWorld, enumerate_full_worlds
from repro.pdb.xtuples import XTuple
from repro.reduction.keys import (
    SubstringKey,
    alternative_key_distribution,
    most_probable_key,
)
from repro.reduction.plan import (
    CandidatePlan,
    PlanBuilder,
    ordered_pair as _ordered,
    plan_from_blocks,
    planning_view,
    tuple_keys,
    within_block_pairs,
)
from repro.reduction.world_selection import (
    select_diverse_worlds,
    select_probable_worlds,
)

def pairs_from_blocks(
    blocks: Mapping[str, list[str]],
) -> Iterator[tuple[str, str]]:
    """All unordered within-block pairs, each emitted once.

    Tuples may appear in several blocks (alternative-key blocking), so a
    matching matrix suppresses repeats across blocks.
    """
    emitted: set[tuple[str, str]] = set()
    for members in blocks.values():
        for i, left in enumerate(members):
            for right in members[i + 1 :]:
                if left == right:
                    continue
                pair = _ordered(left, right)
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair


class CertainKeyBlocking:
    """Blocking on one certain key per x-tuple (Section V-B).

    "Conflict resolution strategies can be used to produce certain key
    values.  In this case, blocking can be performed as usual."  The
    default strategy picks the most probable key value (metadata-based
    deciding, as in Section V-A.2).
    """

    def __init__(
        self,
        key: SubstringKey,
        *,
        key_strategy: Callable[[XTuple, SubstringKey], str] = most_probable_key,
    ) -> None:
        self._key = key
        self._key_strategy = key_strategy

    def blocks(self, relation: XRelation) -> dict[str, list[str]]:
        """Partition: ``key value → member tuple ids``.

        The keys come from :func:`~repro.reduction.plan.tuple_keys`:
        a scan of the key attributes alone (columnar stores serve it
        from the keyed columns), or on a session overlay the memoized
        keys with only changed tuples re-keyed.
        """
        blocks: dict[str, list[str]] = {}
        for tuple_id, key_value in tuple_keys(
            relation, self._key, self._key_strategy
        ):
            blocks.setdefault(key_value, []).append(tuple_id)
        return blocks

    @property
    def prune_key(self) -> SubstringKey | None:
        """The equality key candidate pairs must share, or ``None``.

        Blocking admits a pair only when both sides produce the *same*
        block key, so disjoint key ranges between two sources prove the
        absence of cross pairs — the zone-map pruning contract of
        :func:`repro.matching.executor.multisource.prune_disjoint_sources`.
        Zone maps bound the raw outcomes, which is what the default
        :func:`~repro.reduction.keys.most_probable_key` slices keys
        from; a custom ``key_strategy`` may map them anywhere (case
        folding, say), so then no key is exposed and nothing is pruned.
        (Window- and radius-based reducers pair *nearby* keys and must
        not expose this.)
        """
        if self._key_strategy is not most_probable_key:
            return None
        return self._key

    def pairs(self, relation: XRelation) -> Iterator[tuple[str, str]]:
        """Within-block candidate pairs."""
        return pairs_from_blocks(self.blocks(relation))

    def plan(self, relation: XRelation) -> CandidatePlan:
        """One partition per block — the natural scheduling unit.

        Blocks whose single member can form no pair are dropped; each
        surviving partition carries exactly its block's within-block
        pairs, so a chunk's cache working set covers one key
        neighborhood.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> from repro.reduction.keys import SubstringKey
        >>> relation = XRelation("R", ("name",), [
        ...     XTuple(t, (TupleAlternative({"name": n}, 1.0),))
        ...     for t, n in [("t1", "anna"), ("t2", "anne"), ("t3", "bob")]])
        >>> plan = CertainKeyBlocking(SubstringKey([("name", 1)])).plan(relation)
        >>> [(p.label, p.pairs) for p in plan]
        [('block:a', (('t1', 't2'),))]

        A store exposing ``partition_memo`` (the session overlay) lends
        the plan its memo of block partitions, so a refresh rebuilds
        only blocks whose members changed — the way
        :func:`~repro.reduction.plan.tuple_keys` finds ``key_memo``.
        """
        partition_memo = getattr(relation, "partition_memo", None)
        return plan_from_blocks(
            self.blocks(relation),
            relation_size=len(relation),
            source=repr(self),
            memo=(
                partition_memo(self._key, self._key_strategy)
                if callable(partition_memo)
                else None
            ),
        )

    def __repr__(self) -> str:
        return f"CertainKeyBlocking(key={self._key!r})"


class KeyDistributionBlocking:
    """Blocking on every key value an x-tuple's alternatives can take.

    The alternative-key discipline of Figure 14, shared by
    :class:`AlternativeKeyBlocking` (prefix keys) and
    :class:`~repro.reduction.derived_keys.PhoneticBlocking` (derived
    keys), which differ only in :meth:`key_distribution`: each
    alternative contributes the key values of its distribution, and an
    x-tuple joins every such block once.  Blocks are keyed and ordered
    by first occurrence, so plans list them in scan order.
    """

    def __init__(self, key) -> None:
        self._key = key

    def key_distribution(self, alternative) -> list[tuple[str, float]]:
        """``[(key value, probability)]`` of one alternative."""
        raise NotImplementedError

    def blocks(self, relation: XRelation) -> dict[str, list[str]]:
        """``key value → member tuple ids`` with in-block tuple dedup.

        Runs over :func:`~repro.reduction.plan.planning_view`, so
        columnar stores serve the pass from the keyed columns alone.
        """
        blocks: dict[str, list[str]] = {}
        for xtuple in planning_view(relation, self._key.attributes):
            key_values: list[str] = []
            for alternative in xtuple.alternatives:
                for key_value, _ in self.key_distribution(alternative):
                    if key_value not in key_values:
                        key_values.append(key_value)
            for key_value in key_values:
                members = blocks.setdefault(key_value, [])
                if xtuple.tuple_id not in members:
                    members.append(xtuple.tuple_id)
        return blocks

    def pairs(self, relation: XRelation) -> Iterator[tuple[str, str]]:
        """Within-block candidate pairs (across-block repeats removed)."""
        return pairs_from_blocks(self.blocks(relation))

    def plan(self, relation: XRelation) -> CandidatePlan:
        """One partition per block, repeats claimed by the first block.

        The plan builder's global dedup reproduces the Figure-14
        matching-matrix discipline across partitions.
        """
        return plan_from_blocks(
            self.blocks(relation),
            relation_size=len(relation),
            source=repr(self),
        )


class AlternativeKeyBlocking(KeyDistributionBlocking):
    """Blocking with one block entry per alternative key (Figure 14).

    "Similar to the approach of sorting alternatives an x-tuple can be
    inserted into multiple blocks by creating a key for each alternative.
    … If an x-tuple is allocated to a single block for multiple times,
    except for one, all entries of this tuple are removed."

    >>> from repro.pdb.relations import XRelation
    >>> from repro.pdb.xtuples import TupleAlternative, XTuple
    >>> from repro.reduction.keys import SubstringKey
    >>> uncertain = XTuple("t1", (
    ...     TupleAlternative({"name": "anna"}, 0.5),
    ...     TupleAlternative({"name": "hanna"}, 0.5)))
    >>> certain = XTuple("t2", (TupleAlternative({"name": "hans"}, 1.0),))
    >>> relation = XRelation("R", ("name",), [uncertain, certain])
    >>> plan = AlternativeKeyBlocking(SubstringKey([("name", 1)])).plan(relation)
    >>> [(p.label, p.pairs) for p in plan]  # t1 joins blocks 'a' and 'h'
    [('block:h', (('t1', 't2'),))]
    """

    @property
    def prune_key(self) -> SubstringKey:
        """Equality key shared by all candidate pairs (see
        :attr:`CertainKeyBlocking.prune_key`)."""
        return self._key

    def key_distribution(self, alternative) -> list[tuple[str, float]]:
        """The alternative's prefix-key distribution."""
        return alternative_key_distribution(alternative, self._key)

    def __repr__(self) -> str:
        return f"AlternativeKeyBlocking(key={self._key!r})"


class MultiPassBlocking:
    """Blocking repeated over selected possible worlds (Section V-B).

    "As for the sorted neighborhood method, a multi-pass approach over
    all possible worlds is most often not efficient.  However, a
    multi-pass over some finely chosen worlds seems to be an option."
    World selection reuses :mod:`repro.reduction.world_selection`.
    """

    def __init__(
        self,
        key: SubstringKey,
        *,
        selection: str = "diverse",
        world_count: int = 3,
        diversity_weight: float = 0.5,
        max_worlds: int = 100_000,
    ) -> None:
        if selection not in ("all", "most_probable", "diverse"):
            raise ValueError(f"unknown world selection {selection!r}")
        if world_count < 1:
            raise ValueError(f"world_count must be >= 1, got {world_count}")
        self._key = key
        self._selection = selection
        self._world_count = world_count
        self._diversity_weight = diversity_weight
        self._max_worlds = max_worlds

    def select_worlds(self, relation: XRelation) -> list[PossibleWorld]:
        """The worlds blocked over (full worlds, conditioned)."""
        # Pass the relation itself: storage backends have no ``.xtuples``
        # property.  Enumeration still materializes the x-tuple list —
        # acceptable, since world passes are only tractable for small
        # relations anyway.
        worlds = enumerate_full_worlds(
            relation, max_worlds=self._max_worlds
        )
        if self._selection == "all":
            return worlds
        if self._selection == "most_probable":
            return select_probable_worlds(worlds, self._world_count)
        return select_diverse_worlds(
            worlds,
            self._world_count,
            diversity_weight=self._diversity_weight,
        )

    def blocks_for_world(
        self, relation: XRelation, world: PossibleWorld
    ) -> dict[str, list[str]]:
        """Certain-key blocks of one world."""
        blocks: dict[str, list[str]] = {}
        for xtuple in planning_view(relation, self._key.attributes):
            index = world.alternative_index(xtuple.tuple_id)
            if index is None:
                continue
            alternative = xtuple.alternatives[index]
            assignment = {
                attribute: alternative.value(attribute).most_probable()
                for attribute in alternative.attributes
            }
            key_value = self._key.for_assignment(assignment)
            blocks.setdefault(key_value, []).append(xtuple.tuple_id)
        return blocks

    def pairs(self, relation: XRelation) -> Iterator[tuple[str, str]]:
        """Union of within-block pairs over all selected worlds."""
        emitted: set[tuple[str, str]] = set()
        for world in self.select_worlds(relation):
            for pair in pairs_from_blocks(
                self.blocks_for_world(relation, world)
            ):
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair

    def plan(self, relation: XRelation) -> CandidatePlan:
        """One partition per (world, block); later worlds keep only new pairs.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> from repro.reduction.keys import SubstringKey
        >>> relation = XRelation("R", ("name",), [
        ...     XTuple("t1", (TupleAlternative({"name": "anna"}, 0.6),
        ...                   TupleAlternative({"name": "hanna"}, 0.4))),
        ...     XTuple("t2", (TupleAlternative({"name": "anne"}, 1.0),))])
        >>> reducer = MultiPassBlocking(SubstringKey([("name", 1)]),
        ...                             selection="most_probable",
        ...                             world_count=1)
        >>> [(p.label, p.pairs) for p in reducer.plan(relation)]
        [('world0:a', (('t1', 't2'),))]
        """
        builder = PlanBuilder()
        for index, world in enumerate(self.select_worlds(relation)):
            for key, members in self.blocks_for_world(
                relation, world
            ).items():
                builder.add(
                    f"world{index}:{key}", within_block_pairs(members)
                )
        return builder.build(
            relation_size=len(relation), source=repr(self)
        )

    def __repr__(self) -> str:
        return (
            f"MultiPassBlocking(key={self._key!r}, "
            f"selection={self._selection!r}, k={self._world_count})"
        )
