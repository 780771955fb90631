"""Long-running incremental detection service.

The :class:`DetectionSession` front end keeps plan fingerprints,
per-partition decisions and similarity caches alive between detect
calls so that each ingested delta re-executes only the partitions it
touched; a journaled session persists the decisions alone (the caches
are an in-memory memo).  :mod:`repro.service.cli` wraps it in
``detect`` / ``ingest`` / ``serve`` subcommands (``python -m
repro.service``).  Sessions are normally built through
:meth:`repro.matching.DuplicateDetector.session`.
"""

from repro.service.session import (
    SNAPSHOT_FORMAT,
    DetectionSession,
    SessionStats,
)

__all__ = [
    "DetectionSession",
    "SNAPSHOT_FORMAT",
    "SessionStats",
]
