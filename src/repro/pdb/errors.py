"""Exception hierarchy for the probabilistic database substrate.

All errors raised by :mod:`repro.pdb` derive from :class:`ProbabilisticDataError`
so callers can catch substrate problems with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ProbabilisticDataError(Exception):
    """Base class for all errors raised by the probabilistic data model."""


class InvalidProbabilityError(ProbabilisticDataError):
    """A probability is outside ``(0, 1]`` or a distribution exceeds mass 1."""


class EmptyDistributionError(ProbabilisticDataError):
    """A probabilistic value or x-tuple was constructed with no outcomes."""


class SchemaMismatchError(ProbabilisticDataError):
    """Tuples or relations with incompatible schemas were combined."""


class UnknownAttributeError(ProbabilisticDataError, KeyError):
    """An attribute name is not part of the relation schema."""


class DuplicateTupleIdError(ProbabilisticDataError):
    """Two tuples in one relation share the same identifier."""


class WorldEnumerationError(ProbabilisticDataError):
    """Possible-world enumeration would exceed the configured safety bound."""


class ConditioningError(ProbabilisticDataError):
    """Conditioning on an event of probability zero was requested."""


class StorageError(ProbabilisticDataError):
    """Missing, malformed or inconsistent on-disk relation storage."""


class SegmentCorruptionError(StorageError):
    """A segment file's bytes no longer match its manifest checksum.

    Carries enough context to act on: ``segment_file`` (absolute path),
    ``expected_crc`` / ``actual_crc``, and ``tuple_ids`` (the tuples the
    manifest locates in the segment) — exactly what
    :meth:`ColumnarXTupleStore.quarantine
    <repro.pdb.storage.columnar.ColumnarXTupleStore.quarantine>` needs
    to isolate the damage.
    """

    def __init__(
        self,
        message: str,
        *,
        segment_file: str,
        expected_crc: int | None = None,
        actual_crc: int | None = None,
        tuple_ids: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.segment_file = segment_file
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc
        self.tuple_ids = tuple_ids
