"""Storage backends for x-relations.

Two interchangeable implementations of the :class:`XTupleStore`
protocol feed the detection pipeline:

* :class:`~repro.pdb.relations.XRelation` — the in-memory backend
  (every tuple resident, ``fetch`` hands out the existing objects);
* :class:`ColumnarXTupleStore` — the out-of-core backend over a
  directory of per-attribute column files (mmap-backed reads, an LRU
  cache of decoded tuples, spill-time zone maps; only ids and offsets
  resident), whose
  :meth:`~ColumnarXTupleStore.project` scans a subset of attributes
  without decoding the rest and whose
  :meth:`~ColumnarXTupleStore.statistics` feeds plan-time pruning.

Conversions: :func:`spill_relation` /
:meth:`XRelation.spill <repro.pdb.relations.XRelation.spill>` write a
store directory; :func:`repro.pdb.io.open_store` opens one;
``materialize()`` loads a store back into memory.
"""

from repro.pdb.errors import SegmentCorruptionError, StorageError
from repro.pdb.storage.base import (
    XTupleStore,
    fetch_tuples,
    project_xtuple,
)
from repro.pdb.storage.columnar import (
    COLUMNAR_LAYOUT,
    DEFAULT_MAX_OPEN_SEGMENTS,
    DEFAULT_MAX_PAGES,
    DEFAULT_PAGE_SIZE,
    DEFAULT_SEGMENT_SIZE,
    MANIFEST_NAME,
    QUARANTINE_DIR,
    ColumnarProjection,
    ColumnarXTupleStore,
    PageCacheInfo,
    QuarantinedSegment,
    SegmentIntegrity,
    StoreVerification,
    spill_relation,
)
from repro.pdb.storage.multi import (
    MultiSourceProjection,
    MultiSourceStore,
    combine_sources,
)
from repro.pdb.storage.session import (
    DELTA_SOURCE,
    SessionJournal,
    SessionProjection,
    SessionStore,
)
from repro.pdb.storage.stats import (
    AttributeStatistics,
    StatisticsBuilder,
    StoreStatistics,
    merge_statistics,
    relation_statistics,
)

__all__ = [
    "AttributeStatistics",
    "COLUMNAR_LAYOUT",
    "ColumnarProjection",
    "ColumnarXTupleStore",
    "DEFAULT_MAX_OPEN_SEGMENTS",
    "DEFAULT_MAX_PAGES",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_SEGMENT_SIZE",
    "DELTA_SOURCE",
    "MANIFEST_NAME",
    "MultiSourceProjection",
    "MultiSourceStore",
    "PageCacheInfo",
    "QUARANTINE_DIR",
    "QuarantinedSegment",
    "SegmentCorruptionError",
    "SegmentIntegrity",
    "SessionJournal",
    "SessionProjection",
    "SessionStore",
    "StatisticsBuilder",
    "StorageError",
    "StoreStatistics",
    "StoreVerification",
    "XTupleStore",
    "combine_sources",
    "fetch_tuples",
    "merge_statistics",
    "project_xtuple",
    "relation_statistics",
    "spill_relation",
]
