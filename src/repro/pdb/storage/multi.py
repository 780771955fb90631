"""A chained read-only view over several x-tuple stores.

The paper's headline scenario consolidates *autonomous* probabilistic
sources — ℛ34 = ℛ3 ∪ ℛ4 — yet materializing that union doubles resident
memory for in-memory relations and defeats the purpose of out-of-core
stores entirely.  :class:`MultiSourceStore` gives the execution layer
the union *view* instead: any number of backends satisfying
:class:`~repro.pdb.storage.base.XTupleStore` (in-memory
:class:`~repro.pdb.relations.XRelation`s, spilled
:class:`~repro.pdb.storage.columnar.ColumnarXTupleStore`s, or a mix)
behind one store whose iteration order is exactly the union's —
source 0's tuples, then source 1's, … — so detection over the view is
bitwise identical to detection over the materialized union.

Only *metadata* is combined: the view keeps a tuple-id → source index
map (ids it already holds as strings) and otherwise delegates.  A
working-set :meth:`fetch` splits the requested ids per backing store,
lets each store batch its own lookups (the columnar store decodes only
uncached tuples, the in-memory relation hands out resident objects), and
re-keys the merged result into request order — the *multi-store
working-set fetch* the execution engine loads partitions through.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.pdb.errors import DuplicateTupleIdError, SchemaMismatchError
from repro.pdb.storage.base import XTupleStore
from repro.pdb.xtuples import XTuple


class MultiSourceStore:
    """Union view over several stores, without materializing the union.

    Parameters
    ----------
    stores:
        The backing stores, in union order.  Schemas must agree and
        tuple ids must be disjoint — the paper's integration scenario
        unions autonomous sources whose ids are distinct by
        construction (:class:`DuplicateTupleIdError` otherwise).
    name:
        View name; defaults to ``"∪"``-joining the source names.

    Examples
    --------
    >>> from repro.pdb.relations import XRelation
    >>> from repro.pdb.xtuples import TupleAlternative, XTuple
    >>> def rel(name, *rows):
    ...     return XRelation(name, ("name",), [
    ...         XTuple(t, (TupleAlternative({"name": n}, 1.0),))
    ...         for t, n in rows])
    >>> view = MultiSourceStore([
    ...     rel("R1", ("a1", "anna")), rel("R2", ("b1", "anne"))])
    >>> view.name, len(view), view.tuple_ids
    ('R1∪R2', 2, ('a1', 'b1'))
    >>> view.source_of("b1")
    'R2'
    >>> sorted(view.fetch(["b1", "a1"]))
    ['a1', 'b1']
    """

    def __init__(
        self,
        stores: Sequence[XTupleStore],
        *,
        name: str | None = None,
    ) -> None:
        if not stores:
            raise ValueError("a multi-source view needs at least one store")
        self._stores: tuple[XTupleStore, ...] = tuple(stores)
        first = self._stores[0]
        for store in self._stores[1:]:
            if store.schema != first.schema:
                raise SchemaMismatchError(
                    f"cannot view {first.name} and {store.name} as one "
                    "relation: schemas differ"
                )
        self.schema = first.schema
        self._source_names = _distinct_names(self._stores)
        self.name = name or "∪".join(self._source_names)
        #: tuple id → index of the owning store.
        self._locate: dict[str, int] = {}
        for index, store in enumerate(self._stores):
            for tuple_id in store.tuple_ids:
                if tuple_id in self._locate:
                    raise DuplicateTupleIdError(
                        f"tuple id {tuple_id!r} appears in both "
                        f"{self._source_names[self._locate[tuple_id]]!r} "
                        f"and {self._source_names[index]!r}; sources of a "
                        "multi-source view must have disjoint ids"
                    )
                self._locate[tuple_id] = index

    # ------------------------------------------------------------------
    # Source introspection
    # ------------------------------------------------------------------

    @property
    def stores(self) -> tuple[XTupleStore, ...]:
        """The backing stores, in union order."""
        return self._stores

    @property
    def source_names(self) -> tuple[str, ...]:
        """One stable tag per source (names, disambiguated if equal)."""
        return self._source_names

    def source_of(self, tuple_id: str) -> str:
        """The source tag a tuple id belongs to (``KeyError`` if unknown)."""
        return self._source_names[self._locate[tuple_id]]

    # ------------------------------------------------------------------
    # XTupleStore protocol
    # ------------------------------------------------------------------

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        """All tuple ids in union (source-concatenation) order."""
        return tuple(self._locate.keys())

    def __len__(self) -> int:
        return len(self._locate)

    def __contains__(self, tuple_id: str) -> bool:
        return tuple_id in self._locate

    def __iter__(self) -> Iterator[XTuple]:
        """Stream every source's tuples, in union order."""
        for store in self._stores:
            yield from store

    def get(self, tuple_id: str) -> XTuple:
        """Delegate a single lookup to the owning store."""
        return self._stores[self._locate[tuple_id]].get(tuple_id)

    def project(self, attributes: Iterable[str]) -> "MultiSourceProjection":
        """A union scan over a subset of attributes.

        Each source that can project column-wise (columnar stores,
        nested views) serves its stretch of the union from the selected
        columns alone; sources without a ``project`` method stream
        whole tuples — key strategies read only the selected attributes
        either way, so the scan is planning-equivalent to iterating the
        full view.
        """
        selected = tuple(dict.fromkeys(attributes))
        known = set(self.schema.attributes)
        for attribute in selected:
            if attribute not in known:
                raise KeyError(
                    f"attribute {attribute!r} is not in the schema "
                    f"{self.schema.attributes!r}"
                )
        return MultiSourceProjection(self, selected)

    def statistics(self):
        """Merged zone maps of the sources, or ``None``.

        Available only when *every* source precomputes statistics (the
        columnar backend's spill-time zone maps) — the view never
        streams tuple data to synthesize them.
        """
        from repro.pdb.storage.stats import merge_statistics

        collected = []
        for store in self._stores:
            statistics = getattr(store, "statistics", None)
            if not callable(statistics):
                return None
            computed = statistics()
            if computed is None:
                return None
            collected.append(computed)
        return merge_statistics(collected)

    def fetch(self, tuple_ids: Iterable[str]) -> dict[str, XTuple]:
        """Multi-store working-set fetch.

        Ids are grouped per owning store so each backend services its
        share as one batch (one decode per uncached tuple when spilled),
        then the merged mapping is re-keyed into the caller's request
        order — the same contract as a single store's ``fetch``.
        """
        wanted = list(tuple_ids)
        by_store: dict[int, list[str]] = {}
        for tuple_id in wanted:
            by_store.setdefault(self._locate[tuple_id], []).append(tuple_id)
        merged: dict[str, XTuple] = {}
        for index in sorted(by_store):
            merged.update(self._stores[index].fetch(by_store[index]))
        return {tuple_id: merged[tuple_id] for tuple_id in wanted}

    def __repr__(self) -> str:
        return (
            f"MultiSourceStore({self.name!r}, {len(self._stores)} sources, "
            f"{len(self)} tuples)"
        )


class MultiSourceProjection:
    """A read-only union scan over a subset of attributes.

    Chains per-source projection scans in union order; sources that
    cannot project stream whole tuples (a planning-equivalent
    over-approximation — consumers read only the selected attributes).
    """

    def __init__(
        self, view: MultiSourceStore, attributes: tuple[str, ...]
    ) -> None:
        self._view = view
        self._attributes = attributes

    @property
    def name(self) -> str:
        return self._view.name

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        return self._view.tuple_ids

    def __len__(self) -> int:
        return len(self._view)

    def __iter__(self) -> Iterator[XTuple]:
        for store in self._view.stores:
            project = getattr(store, "project", None)
            if callable(project):
                try:
                    scan = project(self._attributes)
                except (KeyError, TypeError):
                    scan = store
            else:
                scan = store
            yield from scan

    def __repr__(self) -> str:
        return (
            f"MultiSourceProjection({self._view.name!r}, "
            f"attributes={self._attributes!r})"
        )


def _distinct_names(stores: Sequence[XTupleStore]) -> tuple[str, ...]:
    """Source tags: store names, ``#<i>``-suffixed on collision."""
    names = [str(store.name) for store in stores]
    seen: dict[str, int] = {}
    for name in names:
        seen[name] = seen.get(name, 0) + 1
    tags: list[str] = []
    used: set[str] = set()
    for index, name in enumerate(names):
        tag = name if seen[name] == 1 else f"{name}#{index}"
        while tag in used:  # a literal "name#1" may already exist
            tag = f"{tag}#{index}"
        used.add(tag)
        tags.append(tag)
    return tuple(tags)


def combine_sources(
    stores: Sequence[XTupleStore], *, name: str | None = None
) -> XTupleStore:
    """One store for N sources: the single store itself, else the view.

    The degenerate single-source case returns the store unchanged, so
    callers can treat "one or many sources" uniformly without paying
    for an id map they don't need.
    """
    if len(stores) == 1:
        return stores[0]
    return MultiSourceStore(stores, name=name)


__all__ = ["MultiSourceProjection", "MultiSourceStore", "combine_sources"]
