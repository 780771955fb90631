"""The x-tuple storage protocol: what the pipeline needs from a backend.

Everything downstream of the pdb layer — reducers, the execution
planner, ``DuplicateDetector`` — consumes relations through a narrow
read-only surface: sized iteration in insertion order, id membership,
id lookup, and batch lookup of a partition's working set.  This module
names that surface (:class:`XTupleStore`) so that the in-memory
:class:`~repro.pdb.relations.XRelation` and the out-of-core
:class:`~repro.pdb.storage.columnar.ColumnarXTupleStore` are
interchangeable everywhere a relation flows through the stack.

Contract (both implementations):

* ``iter(store)`` yields :class:`~repro.pdb.xtuples.XTuple` objects in
  insertion order — the order that fixes candidate-pair emission and
  therefore result order;
* ``store.get(tuple_id)`` returns the x-tuple for an id (``KeyError``
  for unknown ids);
* ``store.fetch(tuple_ids)`` returns a ``{tuple_id: XTuple}`` mapping
  for a *working set* — the ids of one plan partition or dispatch
  chunk.  Backends may service it however is cheapest (the in-memory
  relation hands out its existing objects; the columnar store decodes
  each uncached tuple once, in file order);
* stores are read-only from the pipeline's perspective: the engine
  only ever reads through them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.pdb.relations import Schema
    from repro.pdb.xtuples import XTuple


@runtime_checkable
class XTupleStore(Protocol):
    """Read-only storage backend holding one x-relation's tuples."""

    name: str
    schema: "Schema"

    def __iter__(self) -> Iterator["XTuple"]:  # pragma: no cover
        ...

    def __len__(self) -> int:  # pragma: no cover
        ...

    def __contains__(self, tuple_id: str) -> bool:  # pragma: no cover
        ...

    def get(self, tuple_id: str) -> "XTuple":  # pragma: no cover
        ...

    @property
    def tuple_ids(self) -> tuple[str, ...]:  # pragma: no cover
        ...

    def fetch(
        self, tuple_ids: Iterable[str]
    ) -> Mapping[str, "XTuple"]:  # pragma: no cover
        ...


def project_xtuple(xtuple: "XTuple", attributes: Iterable[str]) -> "XTuple":
    """One x-tuple restricted to *attributes* (order-preserving).

    Each alternative keeps its probability and its own attribute order,
    filtered to the selection — the in-memory counterpart of a columnar
    projection scan, used by overlay/union views to project tuples the
    backing store cannot serve column-wise.
    """
    from repro.pdb.xtuples import TupleAlternative, XTuple

    selected = set(attributes)
    return XTuple(
        xtuple.tuple_id,
        tuple(
            TupleAlternative(
                {
                    attribute: alternative.value(attribute)
                    for attribute in alternative.attributes
                    if attribute in selected
                },
                alternative.probability,
            )
            for alternative in xtuple.alternatives
        ),
    )


def fetch_tuples(
    relation, tuple_ids: Iterable[str]
) -> Mapping[str, "XTuple"]:
    """One working set of *relation*, as a ``tuple_id → XTuple`` mapping.

    The seam the execution layer loads partitions through: backends with
    a ``fetch`` method (every :class:`XTupleStore`) choose their own
    batch strategy; anything else that merely satisfies the legacy
    ``get`` protocol is looked up id by id.
    """
    fetch = getattr(relation, "fetch", None)
    if fetch is not None:
        return fetch(tuple_ids)
    get = relation.get
    return {tuple_id: get(tuple_id) for tuple_id in tuple_ids}
