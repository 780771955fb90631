"""Probabilistic relations and x-relations.

A relation bundles a :class:`Schema` with a sequence of tuples.  Two
relation flavours mirror the paper's two model families:

* :class:`ProbabilisticRelation` — tuples of the independence model
  (Section IV-A, Figure 4);
* :class:`XRelation` — x-tuples of the ULDB model (Section IV-B,
  Figure 5).  "Relations containing one or more x-tuples are called
  x-relations."

Both support union (the paper's ℛ34 = ℛ3 ∪ ℛ4 integration scenario),
lookup by tuple id and pretty printing that matches the figures.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import Any

from repro.pdb.errors import (
    DuplicateTupleIdError,
    SchemaMismatchError,
    UnknownAttributeError,
)
from repro.pdb.tuples import ProbabilisticTuple
from repro.pdb.xtuples import XTuple


class Schema:
    """An ordered list of attribute names.

    The paper's examples use ``(name, job)``; domains are implicit.  The
    schema is a value object: relations with equal schemas can be unioned.
    """

    __slots__ = ("_attributes",)

    def __init__(self, attributes: Iterable[str]) -> None:
        attrs = tuple(str(a) for a in attributes)
        if not attrs:
            raise SchemaMismatchError("a schema needs at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise SchemaMismatchError(f"duplicate attribute in {attrs}")
        self._attributes = attrs

    @property
    def attributes(self) -> tuple[str, ...]:
        """The attribute names in order."""
        return self._attributes

    def index_of(self, attribute: str) -> int:
        """Position of *attribute* within the schema."""
        try:
            return self._attributes.index(attribute)
        except ValueError:
            raise UnknownAttributeError(attribute) from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._attributes

    def __iter__(self) -> Iterator[str]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        return f"Schema{self._attributes!r}"


def _check_tuple_schema(schema: Schema, attributes: Sequence[str], owner: str) -> None:
    if tuple(attributes) != schema.attributes:
        raise SchemaMismatchError(
            f"tuple {owner} has attributes {tuple(attributes)!r}, "
            f"expected {schema.attributes!r}"
        )


class _BaseRelation:
    """Shared container behaviour for both relation flavours."""

    __slots__ = ("name", "schema", "_tuples", "_by_id")

    def __init__(self, name: str, schema: Schema, tuples: Iterable[Any]) -> None:
        self.name = str(name)
        self.schema = schema
        self._tuples: list[Any] = []
        self._by_id: dict[str, Any] = {}
        for item in tuples:
            self._add(item)

    def _add(self, item: Any) -> None:
        if item.tuple_id in self._by_id:
            raise DuplicateTupleIdError(
                f"tuple id {item.tuple_id!r} already present in {self.name}"
            )
        _check_tuple_schema(self.schema, item.attributes, item.tuple_id)
        self._tuples.append(item)
        self._by_id[item.tuple_id] = item

    def __iter__(self) -> Iterator[Any]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tuple_id: str) -> bool:
        return tuple_id in self._by_id

    def get(self, tuple_id: str) -> Any:
        """Tuple lookup by id; raises ``KeyError`` for unknown ids."""
        return self._by_id[tuple_id]

    def fetch(self, tuple_ids: Iterable[str]) -> dict[str, Any]:
        """Batch lookup of a working set (the storage-backend protocol).

        The in-memory backend just hands out its existing tuple objects;
        out-of-core backends decode the requested tuples instead (see
        :mod:`repro.pdb.storage`).
        """
        by_id = self._by_id
        return {tuple_id: by_id[tuple_id] for tuple_id in tuple_ids}

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        """All tuple ids in insertion order."""
        return tuple(self._by_id.keys())

    def pretty(self) -> str:
        """Figure-style rendering of the whole relation."""
        header = f"{self.name}({', '.join(self.schema.attributes)})"
        rows = [header, "-" * len(header)]
        rows.extend(item.pretty() for item in self._tuples)
        return "\n".join(rows)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{len(self._tuples)} tuples)"
        )


class ProbabilisticRelation(_BaseRelation):
    """A relation of :class:`ProbabilisticTuple` rows (independence model)."""

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        tuples: Iterable[ProbabilisticTuple] = (),
    ) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        super().__init__(name, schema, tuples)

    @property
    def tuples(self) -> tuple[ProbabilisticTuple, ...]:
        """All tuples in insertion order."""
        return tuple(self._tuples)

    def union(
        self, other: "ProbabilisticRelation", name: str | None = None
    ) -> "ProbabilisticRelation":
        """Union of two relations over the same schema.

        Tuple ids must not collide — the paper's integration scenario
        unions autonomous sources whose ids are distinct by construction.
        """
        if self.schema != other.schema:
            raise SchemaMismatchError(
                f"cannot union {self.name} and {other.name}: schemas differ"
            )
        return ProbabilisticRelation(
            name or f"{self.name}∪{other.name}",
            self.schema,
            list(self._tuples) + list(other._tuples),
        )

    def to_x_relation(self, name: str | None = None) -> "XRelation":
        """Embed into the x-tuple model (1 alternative per tuple)."""
        return XRelation(
            name or self.name,
            self.schema,
            [XTuple.from_flat(t) for t in self._tuples],
        )


class XRelation(_BaseRelation):
    """A relation of :class:`XTuple` rows (ULDB model)."""

    def __init__(
        self,
        name: str,
        schema: Schema | Iterable[str],
        xtuples: Iterable[XTuple] = (),
    ) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        super().__init__(name, schema, xtuples)

    @property
    def xtuples(self) -> tuple[XTuple, ...]:
        """All x-tuples in insertion order."""
        return tuple(self._tuples)

    def union(self, other: "XRelation", name: str | None = None) -> "XRelation":
        """Union of two x-relations over the same schema (the paper's ℛ34)."""
        if self.schema != other.schema:
            raise SchemaMismatchError(
                f"cannot union {self.name} and {other.name}: schemas differ"
            )
        return XRelation(
            name or f"{self.name}∪{other.name}",
            self.schema,
            list(self._tuples) + list(other._tuples),
        )

    def conditioned(self, name: str | None = None) -> "XRelation":
        """Condition every x-tuple on membership (scale probs to sum 1)."""
        return XRelation(
            name or self.name,
            self.schema,
            [xt.conditioned() for xt in self._tuples],
        )

    def expanded(self, name: str | None = None) -> "XRelation":
        """Expand uncertain attribute values into certain alternatives."""
        return XRelation(
            name or self.name,
            self.schema,
            [xt.expand() for xt in self._tuples],
        )

    def alternative_count(self) -> int:
        """Total number of alternatives across all x-tuples."""
        return sum(len(xt) for xt in self._tuples)

    def spill(self, path: str, **spill_options):
        """Write this relation to an out-of-core store directory.

        Returns the opened
        :class:`~repro.pdb.storage.ColumnarXTupleStore`; keyword options
        (``segment_size``, ``page_size``, ``max_pages``,
        ``max_open_segments``) are forwarded to
        :func:`repro.pdb.storage.spill_relation`.
        """
        from repro.pdb.storage import spill_relation

        return spill_relation(self, path, **spill_options)
