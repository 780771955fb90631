"""Out-of-core x-relations: columnar, mmap-backed segment families.

A *spilled* x-relation lives in a directory.  Each segment of tuples is
decomposed into one *structure* file plus one file per schema
attribute:

.. code-block:: text

    store/
      manifest.json            # layout marker, offsets, zone maps, CRCs
      seg-00000.tuples.jsonl   # per tuple: id, alternative
                               # probabilities + attribute order
      seg-00000.col00.jsonl    # per tuple: exact-encoded values of
                               # schema attribute 0, one list per line
      seg-00000.col01.jsonl
      ...

Segment files are written append-only by :func:`spill_relation` and
never touched afterwards; the manifest is written last and atomically
(:func:`repro.pdb.io.write_text_atomic`), so an interrupted spill never
produces a directory that opens as a store.

The structure line records, per alternative, its probability and its
attribute *order* (``0`` when it equals the schema order), and values
use the *exact* codec (:func:`repro.pdb.io.encode_value_exact`):
per-alternative attribute order and outcome iteration order survive the
round trip, so floating-point accumulations over decoded tuples — and
therefore detection results — are bitwise-identical to the in-memory
relation's.  A column line holds the values of the alternatives that
carry the attribute, in alternative order, so any subset of columns can
be reassembled without consulting the others.

Reads are **mmap-backed**: every file is mapped once per process and
lines are sliced straight out of the mapping, so OS-cached pages are
served without a read syscall or userspace buffering, and every
process mapping the store shares one page cache (a mapping has no seek
position).  Only ids and offsets stay resident; :meth:`get` and
:meth:`fetch` serve an LRU cache of decoded tuples keyed by tuple id
and decode only the requested tuples that miss it — one structure line
plus one line per column each, in file order — so decoded residency
stays bounded by ``page_size × max_pages`` tuples.  Mappings and cached
tuples are pickled away (``__getstate__``), so pickling a store costs
only metadata.

The payoff is **projection**: :meth:`ColumnarXTupleStore.project`
scans the structure file plus only the named attributes' columns —
key-extraction and planning passes over a wide relation decode a small
fraction of the stored bytes.  At spill time the writer also folds
per-source **zone maps** (min/max value bytes, ⊥ / pattern counts;
:mod:`repro.pdb.storage.stats`) into the manifest, so cross-source
pruning can drop a source whose key range overlaps no other source's
before touching any tuple data.

Integrity: a CRC32 per file, verified lazily the first time a mapping
is sliced (a projection pass therefore only pays for the files it
actually reads), raising
:class:`~repro.pdb.errors.SegmentCorruptionError` (path, expected and
actual CRC, affected tuple ids) on mismatch; :meth:`verify` audits the
whole store without serving tuples and :meth:`quarantine` isolates a
segment *family* — structure file and all its columns move together,
the manifest is rewritten atomically first.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.pdb.errors import SegmentCorruptionError, StorageError
from repro.pdb.io import (
    decode_value,
    encode_value_exact,
    write_text_atomic,
)
from repro.pdb.relations import Schema, XRelation
from repro.pdb.storage.stats import StatisticsBuilder, StoreStatistics
from repro.pdb.xtuples import TupleAlternative, XTuple

#: Manifest file name inside a store directory.
MANIFEST_NAME = "manifest.json"

#: Format identifier of the store layout.
STORE_FORMAT = 1

#: Manifest value of the ``layout`` key identifying this format.
COLUMNAR_LAYOUT = "columnar"

#: Directory (inside a store) quarantined segment files are moved to.
QUARANTINE_DIR = "quarantine"

#: Tuples per segment family written by :func:`spill_relation`.
DEFAULT_SEGMENT_SIZE = 512

#: Tuple-cache bound, as ``page_size × max_pages`` decoded tuples.
DEFAULT_PAGE_SIZE = 64
DEFAULT_MAX_PAGES = 32

#: Files kept mapped per process (LRU); large relations have
#: relation_size / segment_size segment families, far beyond the
#: default FD ulimit, so mappings are evicted-and-closed like tuples.
DEFAULT_MAX_OPEN_SEGMENTS = 64

#: Pseudo column index of a segment's structure (tuples) file.
_STRUCTURE = -1


@dataclass(frozen=True)
class PageCacheInfo:
    """A snapshot of one store's tuple-cache behaviour.

    Hits and misses count requested tuples; a miss is one decode.
    """

    hits: int
    misses: int
    evictions: int
    cached_tuples: int
    page_size: int
    max_pages: int

    @property
    def capacity_tuples(self) -> int:
        """Upper bound on decoded tuples the cache can hold."""
        return self.page_size * self.max_pages


@dataclass(frozen=True)
class SegmentIntegrity:
    """Audit result for one file of a store."""

    #: File name (relative to the store directory).
    file: str
    #: Tuples the manifest locates in the file's segment.
    tuples: int
    #: Manifest CRC32 (``None`` = no checksum recorded, unverifiable).
    expected_crc: int | None
    #: CRC32 of the bytes on disk (``None`` when the file is unreadable).
    actual_crc: int | None
    #: Human-readable status: ``"ok"``, ``"corrupt"``, ``"unreadable"``
    #: or ``"unverifiable"``.
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class StoreVerification:
    """Whole-store audit produced by :meth:`ColumnarXTupleStore.verify`."""

    #: Store directory audited.
    path: str
    #: Per-file results, in manifest order.
    segments: tuple[SegmentIntegrity, ...]

    @property
    def ok(self) -> bool:
        """Whether every file verified clean."""
        return all(segment.ok for segment in self.segments)

    @property
    def corrupt(self) -> tuple[SegmentIntegrity, ...]:
        """Files that failed the audit (corrupt or unreadable)."""
        return tuple(
            segment
            for segment in self.segments
            if segment.status in ("corrupt", "unreadable")
        )


@dataclass(frozen=True)
class QuarantinedSegment:
    """Receipt of one :meth:`ColumnarXTupleStore.quarantine` call."""

    #: Structure file name of the family that was isolated.
    file: str
    #: Where the first moved file went (inside ``quarantine/``), or
    #: ``None`` if the family had already vanished.
    quarantined_path: str | None
    #: Ids of the tuples that became unavailable.
    tuple_ids: tuple[str, ...]
    #: Tuples still servable from the store afterwards.
    remaining: int


def _tuples_name(index: int) -> str:
    return f"seg-{index:05d}.tuples.jsonl"


def _column_name(index: int, column: int) -> str:
    return f"seg-{index:05d}.col{column:02d}.jsonl"


def _write_lines(file_path: str, lines: Sequence[str]) -> tuple[list[int], int]:
    """Write JSONL lines; return their byte offsets and the file CRC32."""
    offsets: list[int] = []
    crc = 0
    position = 0
    # newline="" disables newline translation: recorded offsets must
    # match the bytes on disk exactly.
    with open(file_path, "w", encoding="utf-8", newline="") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
            encoded = line.encode("utf-8") + b"\n"
            crc = zlib.crc32(encoded, crc)
            offsets.append(position)
            position += len(encoded)
        handle.flush()
        os.fsync(handle.fileno())
    return offsets, crc


def _dump(document) -> str:
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)


def spill_relation(
    relation,
    path: str,
    *,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    page_size: int = DEFAULT_PAGE_SIZE,
    max_pages: int = DEFAULT_MAX_PAGES,
    max_open_segments: int = DEFAULT_MAX_OPEN_SEGMENTS,
    layout: str = COLUMNAR_LAYOUT,
) -> "ColumnarXTupleStore":
    """Write *relation* (any :class:`XTupleStore`) to a store directory.

    Streams tuples in insertion order into ``segment_size``-tuple
    segment families (structure file + one file per schema attribute),
    folding the store's zone maps as it goes; the manifest —
    offsets, CRCs, statistics — is written last and atomically, so an
    interrupted spill never produces a directory that opens as a store.
    Returns the directory opened as a :class:`ColumnarXTupleStore`.
    ``layout`` accepts only ``"columnar"``, the one on-disk layout.
    """
    if layout != COLUMNAR_LAYOUT:
        raise ValueError(
            f"unknown spill layout {layout!r}: the row layout was "
            f"retired, {COLUMNAR_LAYOUT!r} is the only on-disk layout"
        )
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as error:
        raise StorageError(
            f"cannot create store directory {path!r}: {error}"
        ) from error
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if os.path.exists(manifest_path):
        raise StorageError(
            f"{path!r} already contains a spilled store; refusing to "
            "overwrite it"
        )
    schema_attributes = tuple(relation.schema.attributes)
    schema_set = set(schema_attributes)
    column_of = {
        attribute: column
        for column, attribute in enumerate(schema_attributes)
    }
    statistics = StatisticsBuilder(schema_attributes)
    segments: list[dict] = []
    seen: set[str] = set()
    iterator = iter(relation)
    exhausted = False
    index = 0
    written_files: list[str] = []
    try:
        while not exhausted:
            batch: list[XTuple] = []
            for _ in range(segment_size):
                try:
                    xtuple = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                if xtuple.tuple_id in seen:
                    raise StorageError(
                        f"duplicate tuple id {xtuple.tuple_id!r} "
                        f"while spilling to {path!r}"
                    )
                seen.add(xtuple.tuple_id)
                batch.append(xtuple)
            if not batch:
                continue
            structure_lines: list[str] = []
            column_lines: list[list[str]] = [
                [] for _ in schema_attributes
            ]
            for xtuple in batch:
                statistics.observe(xtuple)
                alternatives_doc = []
                per_column: list[list] = [[] for _ in schema_attributes]
                for alternative in xtuple.alternatives:
                    names = alternative.attributes
                    for attribute in names:
                        if attribute not in schema_set:
                            raise StorageError(
                                f"tuple {xtuple.tuple_id!r} carries "
                                f"attribute {attribute!r} outside the "
                                f"schema {schema_attributes!r}; the "
                                "columnar layout stores schema "
                                "attributes only"
                            )
                        per_column[column_of[attribute]].append(
                            encode_value_exact(
                                alternative.value(attribute)
                            )
                        )
                    alternatives_doc.append(
                        [
                            alternative.probability,
                            0 if names == schema_attributes else list(names),
                        ]
                    )
                structure_lines.append(
                    _dump(
                        {"id": xtuple.tuple_id, "alts": alternatives_doc}
                    )
                )
                for column, values in enumerate(per_column):
                    column_lines[column].append(_dump(values))
            tuples_file = _tuples_name(index)
            tuples_path = os.path.join(path, tuples_file)
            written_files.append(tuples_path)
            offsets, crc = _write_lines(tuples_path, structure_lines)
            columns_doc = []
            for column, lines in enumerate(column_lines):
                column_file = _column_name(index, column)
                column_path = os.path.join(path, column_file)
                written_files.append(column_path)
                column_offsets, column_crc = _write_lines(
                    column_path, lines
                )
                columns_doc.append(
                    {
                        "file": column_file,
                        "offsets": column_offsets,
                        "crc32": column_crc,
                    }
                )
            segments.append(
                {
                    "tuples": tuples_file,
                    "ids": [xtuple.tuple_id for xtuple in batch],
                    "offsets": offsets,
                    "crc32": crc,
                    "columns": columns_doc,
                }
            )
            index += 1
        manifest = {
            "format": STORE_FORMAT,
            "kind": "repro-xtuple-store",
            "layout": COLUMNAR_LAYOUT,
            "name": relation.name,
            "schema": list(schema_attributes),
            "count": len(seen),
            "segments": segments,
            "statistics": statistics.build().to_dict(),
        }
        write_text_atomic(manifest_path, _dump(manifest))
    except BaseException:
        # A failed spill must not leave anything behind: orphaned
        # segment families would silently coexist with a later spill
        # into the same path, and a manifest without its files is a
        # corrupt store.
        for file_path in written_files + [manifest_path]:
            try:
                os.unlink(file_path)
            except OSError:
                pass
        raise
    return ColumnarXTupleStore(
        path,
        page_size=page_size,
        max_pages=max_pages,
        max_open_segments=max_open_segments,
    )


class ColumnarXTupleStore:
    """Read-only, mmap-backed columnar x-tuple store.

    Satisfies :class:`~repro.pdb.storage.base.XTupleStore` — iteration
    order, decoded values and probabilities are bitwise-identical to
    the in-memory relation.  Beyond the protocol it offers
    :meth:`project` (scan a subset of attributes without decoding the
    rest) and :meth:`statistics` (the spill-time zone maps as a
    :class:`~repro.pdb.storage.stats.StoreStatistics`).

    Parameters
    ----------
    path:
        A directory produced by :func:`spill_relation` /
        :meth:`XRelation.spill <repro.pdb.relations.XRelation.spill>`.
    page_size / max_pages:
        Bound of the LRU cache of fully-decoded tuples behind
        :meth:`get` / :meth:`fetch`: it never holds more than
        ``page_size × max_pages`` tuples (plus any working set a caller
        is currently holding).  A miss decodes just the missing tuple.
    max_open_segments:
        Mapped *files* kept per process (LRU).  A full-tuple scan keeps
        ``1 + len(schema)`` files of the current segment mapped, so the
        cap should exceed the attribute count (the default 64 does).

    Every file whose manifest entry records a CRC32 is verified the
    first time its mapping is sliced — lazily and per file, so a
    projection pass only verifies the files it reads.
    """

    def __init__(
        self,
        path: str,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        max_pages: int = DEFAULT_MAX_PAGES,
        max_open_segments: int = DEFAULT_MAX_OPEN_SEGMENTS,
    ) -> None:
        if page_size < 1:
            raise ValueError("page_size must be >= 1")
        if max_pages < 1:
            raise ValueError("max_pages must be >= 1")
        if max_open_segments < 1:
            raise ValueError("max_open_segments must be >= 1")
        self._path = os.path.abspath(path)
        self._page_size = page_size
        self._max_pages = max_pages
        self._max_open_segments = max_open_segments
        self._load_manifest()
        #: (segment, column) → mmap; column -1 is the structure file.
        self._maps: OrderedDict[tuple[int, int], mmap.mmap] = OrderedDict()
        #: tuple id → decoded tuple, least recently used first.
        self._cache: OrderedDict[str, XTuple] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _load_manifest(self) -> None:
        """(Re)build the resident metadata from the manifest on disk."""
        path = self._path
        manifest_path = os.path.join(self._path, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StorageError(
                f"{path!r} is not a spilled store (no {MANIFEST_NAME})"
            ) from None
        except json.JSONDecodeError as error:
            raise StorageError(
                f"corrupt store manifest in {path!r}: {error}"
            ) from error
        if manifest.get("format") != STORE_FORMAT:
            raise StorageError(
                f"unsupported store format {manifest.get('format')!r}"
            )
        layout = manifest.get("layout", "rows")
        if layout != COLUMNAR_LAYOUT:
            raise StorageError(
                f"store at {path!r} uses the {layout!r} layout, not "
                f"{COLUMNAR_LAYOUT!r}; the row layout was retired: "
                "materialize() the store with an earlier release, then "
                "re-spill it"
            )
        self._segment_files: list[list[str]] = []  # [structure, col...]
        self._segment_offsets: list[list[list[int]]] = []
        self._segment_ids: list[list[str]] = []
        self._segment_crcs: list[list[int | None]] = []
        #: (segment, column) pairs whose bytes already matched their CRC.
        self._verified: set[tuple[int, int]] = set()
        #: tuple id → (segment index, position within segment)
        self._locate: dict[str, tuple[int, int]] = {}
        try:
            self.name: str = manifest["name"]
            self.schema = Schema(manifest["schema"])
            self._statistics_doc = manifest.get("statistics", {})
            expected_columns = len(self.schema.attributes)
            for segment_index, segment in enumerate(manifest["segments"]):
                ids = segment["ids"]
                offsets = segment["offsets"]
                if len(ids) != len(offsets):
                    raise StorageError(
                        f"segment {segment['tuples']!r} ids/offsets "
                        "mismatch"
                    )
                columns = segment["columns"]
                if len(columns) != expected_columns:
                    raise StorageError(
                        f"segment {segment['tuples']!r} stores "
                        f"{len(columns)} columns for a "
                        f"{expected_columns}-attribute schema"
                    )
                files = [os.path.join(self._path, segment["tuples"])]
                per_file_offsets = [list(offsets)]
                crcs: list[int | None] = [segment.get("crc32")]
                for column in columns:
                    if len(column["offsets"]) != len(ids):
                        raise StorageError(
                            f"column {column['file']!r} offsets do not "
                            "cover every tuple of its segment"
                        )
                    files.append(
                        os.path.join(self._path, column["file"])
                    )
                    per_file_offsets.append(list(column["offsets"]))
                    crcs.append(column.get("crc32"))
                self._segment_files.append(files)
                self._segment_offsets.append(per_file_offsets)
                self._segment_ids.append(list(ids))
                self._segment_crcs.append(crcs)
                for position, tuple_id in enumerate(ids):
                    if tuple_id in self._locate:
                        raise StorageError(
                            f"duplicate tuple id {tuple_id!r} in manifest"
                        )
                    self._locate[tuple_id] = (segment_index, position)
        except KeyError as missing:
            raise StorageError(
                f"store manifest in {path!r} missing key "
                f"{missing.args[0]!r}"
            ) from None
        if len(self._locate) != manifest.get("count", len(self._locate)):
            raise StorageError(
                f"manifest count {manifest.get('count')} does not match "
                f"{len(self._locate)} indexed tuples"
            )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    @property
    def path(self) -> str:
        """The store directory."""
        return self._path

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        """All tuple ids in insertion (spill) order."""
        return tuple(self._locate.keys())

    def __len__(self) -> int:
        return len(self._locate)

    def __contains__(self, tuple_id: str) -> bool:
        return tuple_id in self._locate

    def __iter__(self) -> Iterator[XTuple]:
        """Stream all x-tuples in insertion order, bypassing the cache."""
        columns = self._all_columns()
        for segment in range(len(self._segment_files)):
            for position in range(len(self._segment_ids[segment])):
                yield self._decode(segment, position, columns)

    # ------------------------------------------------------------------
    # mmap plumbing
    # ------------------------------------------------------------------

    def _file_path(self, segment: int, column: int) -> str:
        return self._segment_files[segment][column + 1]

    def _map(self, segment: int, column: int) -> mmap.mmap:
        """The (lazily created, LRU-bounded) mapping of one file.

        The first slice of a file triggers its CRC verification; a
        mapping evicted and re-created later is not re-verified —
        verification happens once per file per store instance.
        """
        key = (segment, column)
        maps = self._maps
        mapped = maps.get(key)
        if mapped is not None:
            maps.move_to_end(key)
            return mapped
        file_path = self._file_path(segment, column)
        try:
            with open(file_path, "rb") as handle:
                mapped = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as error:
            raise StorageError(
                f"unreadable segment file {file_path!r}: {error}"
            ) from error
        expected = self._segment_crcs[segment][column + 1]
        if expected is not None and key not in self._verified:
            actual = zlib.crc32(mapped)
            if actual != expected:
                mapped.close()
                raise SegmentCorruptionError(
                    f"segment file {file_path!r} failed its integrity "
                    f"check: CRC32 {actual:#010x} on disk, manifest "
                    f"records {expected:#010x} "
                    f"({len(self._segment_ids[segment])} tuples "
                    "affected; quarantine() isolates the segment "
                    "family)",
                    segment_file=file_path,
                    expected_crc=expected,
                    actual_crc=actual,
                    tuple_ids=tuple(self._segment_ids[segment]),
                )
            self._verified.add(key)
        maps[key] = mapped
        if len(maps) > self._max_open_segments:
            maps.popitem(last=False)[1].close()
        return mapped

    def _line(self, segment: int, column: int, position: int) -> bytes:
        mapped = self._map(segment, column)
        offsets = self._segment_offsets[segment][column + 1]
        start = offsets[position]
        end = (
            offsets[position + 1]
            if position + 1 < len(offsets)
            else mapped.size()
        )
        return mapped[start:end]

    def _parse(self, segment: int, column: int, position: int):
        line = self._line(segment, column, position)
        try:
            # Decode before parsing: ``json.loads`` on raw bytes re-sniffs
            # the encoding per call, which dominates thin-column scans.
            return json.loads(line.decode("utf-8"))
        except ValueError as error:
            file_path = self._file_path(segment, column)
            offset = self._segment_offsets[segment][column + 1][position]
            tuple_id = self._segment_ids[segment][position]
            raise StorageError(
                f"corrupt segment line in {file_path!r} at byte offset "
                f"{offset} (tuple {tuple_id!r}): {error}"
            ) from error

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def _all_columns(self) -> dict[str, int]:
        return {
            attribute: column
            for column, attribute in enumerate(self.schema.attributes)
        }

    def _decode(
        self, segment: int, position: int, columns: dict[str, int]
    ) -> XTuple:
        """Reassemble one tuple from the structure line + *columns*.

        *columns* maps attribute name → column index and may cover any
        subset of the schema (projection); unselected attributes are
        skipped without reading their files.  Per-alternative attribute
        order is restored from the structure line, so full decodes are
        bitwise-identical to the spilled relation.
        """
        structure = self._parse(segment, _STRUCTURE, position)
        column_values = {
            attribute: self._parse(segment, column, position)
            for attribute, column in columns.items()
        }
        cursors = dict.fromkeys(column_values, 0)
        schema_attributes = self.schema.attributes
        alternatives = []
        for probability, names in structure["alts"]:
            if names == 0:
                names = schema_attributes
            values = {}
            for attribute in names:
                selected = column_values.get(attribute)
                if selected is None:
                    continue
                cursor = cursors[attribute]
                cursors[attribute] = cursor + 1
                values[attribute] = decode_value(selected[cursor])
            alternatives.append(TupleAlternative(values, probability))
        return XTuple(structure["id"], alternatives)

    # ------------------------------------------------------------------
    # Random access through the tuple cache
    # ------------------------------------------------------------------

    def get(self, tuple_id: str) -> XTuple:
        """Decode one x-tuple by id (via the tuple cache)."""
        return self._lookup((tuple_id,))[tuple_id]

    def fetch(self, tuple_ids: Iterable[str]) -> dict[str, XTuple]:
        """Decode a working set, in request order; each tuple once."""
        return self._lookup(tuple_ids)

    def _lookup(self, tuple_ids: Iterable[str]) -> dict[str, XTuple]:
        """Serve cache hits, then decode the misses in file order."""
        found: dict[str, XTuple | None] = dict.fromkeys(tuple_ids)
        cache = self._cache
        missing: list[tuple[int, int, str]] = []
        for tuple_id in found:
            cached = cache.get(tuple_id)
            if cached is None:
                missing.append((*self._locate[tuple_id], tuple_id))
            else:
                cache.move_to_end(tuple_id)
                found[tuple_id] = cached
        self._hits += len(found) - len(missing)
        columns = self._all_columns()
        capacity = self._page_size * self._max_pages
        for segment, position, tuple_id in sorted(missing):
            found[tuple_id] = cache[tuple_id] = self._decode(
                segment, position, columns
            )
            self._misses += 1
            if len(cache) > capacity:
                cache.popitem(last=False)
                self._evictions += 1
        return found

    # ------------------------------------------------------------------
    # Projection and statistics — the planner-facing surface
    # ------------------------------------------------------------------

    def project(self, attributes: Iterable[str]) -> "ColumnarProjection":
        """A scan view over a subset of attributes.

        Iterating the view yields x-tuples whose alternatives carry
        only the selected attributes (probabilities, ids and order are
        untouched), decoded from the structure file plus the selected
        columns — the other columns' bytes are never read.  Key
        strategies evaluate identically on the view because they read
        nothing but the key attributes and the alternative
        probabilities.
        """
        selected = tuple(dict.fromkeys(attributes))
        known = set(self.schema.attributes)
        for attribute in selected:
            if attribute not in known:
                raise KeyError(
                    f"attribute {attribute!r} is not in the schema "
                    f"{self.schema.attributes!r}"
                )
        return ColumnarProjection(self, selected)

    def statistics(self) -> StoreStatistics:
        """The spill-time zone maps of this store."""
        return StoreStatistics.from_dict(self._statistics_doc)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def cache_info(self) -> PageCacheInfo:
        """Current tuple-cache statistics."""
        return PageCacheInfo(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            cached_tuples=len(self._cache),
            page_size=self._page_size,
            max_pages=self._max_pages,
        )

    def clear_cache(self) -> None:
        """Drop every cached tuple (counters are kept)."""
        self._cache.clear()

    def materialize(self, name: str | None = None) -> XRelation:
        """Load the whole store into an in-memory :class:`XRelation`."""
        return XRelation(name or self.name, self.schema, iter(self))

    @property
    def open_segments(self) -> int:
        """Currently mapped files (≤ ``max_open_segments``)."""
        return len(self._maps)

    # ------------------------------------------------------------------
    # Integrity: audit and quarantine
    # ------------------------------------------------------------------

    def verify(self) -> StoreVerification:
        """Audit every file of every segment family without serving tuples.

        Never raises for corruption — all damage is reported in one
        pass (``result.corrupt``), one entry per *file* (structure and
        columns alike), so an operator can quarantine every affected
        segment family before re-serving.
        """
        results: list[SegmentIntegrity] = []
        for segment, files in enumerate(self._segment_files):
            tuples = len(self._segment_ids[segment])
            for column, file_path in enumerate(files):
                expected = self._segment_crcs[segment][column]
                file_name = os.path.basename(file_path)
                try:
                    crc = 0
                    with open(file_path, "rb") as handle:
                        for block in iter(
                            lambda: handle.read(1 << 16), b""
                        ):
                            crc = zlib.crc32(block, crc)
                except OSError:
                    results.append(
                        SegmentIntegrity(
                            file_name, tuples, expected, None, "unreadable"
                        )
                    )
                    continue
                if expected is None:
                    status = "unverifiable"
                elif crc == expected:
                    status = "ok"
                    self._verified.add((segment, column - 1))
                else:
                    status = "corrupt"
                results.append(
                    SegmentIntegrity(
                        file_name, tuples, expected, crc, status
                    )
                )
        return StoreVerification(self._path, tuple(results))

    def quarantine(self, segment: int | str) -> QuarantinedSegment:
        """Isolate one corrupt segment *family*; the rest stays servable.

        *segment* is a manifest index, or the name/path of **any** file
        of the family (structure or column — e.g. the ``segment_file``
        a :class:`~repro.pdb.errors.SegmentCorruptionError` carries).
        The manifest is rewritten atomically without the family first,
        then every file of the family is moved into ``quarantine/`` —
        a crash in between leaves a valid manifest plus orphaned (never
        again served) files, never a manifest pointing at missing data.
        """
        if isinstance(segment, str):
            wanted = os.path.basename(segment)
            index = None
            for candidate, files in enumerate(self._segment_files):
                if wanted in [os.path.basename(f) for f in files]:
                    index = candidate
                    break
            if index is None:
                raise StorageError(
                    f"no segment file {wanted!r} in store {self._path!r}"
                )
            segment = index
        if not 0 <= segment < len(self._segment_files):
            raise StorageError(
                f"no segment index {segment} in store {self._path!r} "
                f"({len(self._segment_files)} segments)"
            )
        family = list(self._segment_files[segment])
        tuples_name = os.path.basename(family[0])
        dropped_ids = tuple(self._segment_ids[segment])
        manifest_path = os.path.join(self._path, MANIFEST_NAME)
        try:
            with open(manifest_path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(
                f"cannot rewrite store manifest in {self._path!r}: "
                f"{error}"
            ) from error
        kept = [
            doc
            for doc in manifest.get("segments", ())
            if doc.get("tuples") != tuples_name
        ]
        manifest["segments"] = kept
        manifest["count"] = sum(len(doc["ids"]) for doc in kept)
        write_text_atomic(manifest_path, _dump(manifest))
        # Manifest first, move second: after the atomic rewrite the
        # store no longer references the family, so a crash before (or
        # during) the moves merely leaves orphaned files behind.
        quarantine_dir = os.path.join(self._path, QUARANTINE_DIR)
        quarantined_path: str | None = None
        for file_path in family:
            if os.path.exists(file_path):
                os.makedirs(quarantine_dir, exist_ok=True)
                moved = os.path.join(
                    quarantine_dir, os.path.basename(file_path)
                )
                os.replace(file_path, moved)
                if quarantined_path is None:
                    quarantined_path = moved
        self.close()
        self._load_manifest()
        return QuarantinedSegment(
            file=tuples_name,
            quarantined_path=quarantined_path,
            tuple_ids=dropped_ids,
            remaining=len(self._locate),
        )

    def close(self) -> None:
        """Close every mapping and drop cached tuples (idempotent)."""
        maps = getattr(self, "_maps", None)
        if maps:
            for mapped in maps.values():
                try:
                    mapped.close()
                except (OSError, ValueError):
                    pass
        self._maps = OrderedDict()
        self._cache = OrderedDict()

    def __enter__(self) -> "ColumnarXTupleStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getstate__(self) -> dict:
        # Mappings are process-local and cached tuples are cheap to
        # refill; pickling ships metadata only.
        state = self.__dict__.copy()
        state["_maps"] = OrderedDict()
        state["_cache"] = OrderedDict()
        return state

    def __repr__(self) -> str:
        return (
            f"ColumnarXTupleStore({self._path!r}, {len(self)} tuples, "
            f"{len(self._segment_files)} segments, "
            f"{len(self.schema.attributes)} columns)"
        )


class ColumnarProjection:
    """A read-only scan over a subset of a columnar store's attributes.

    Yields x-tuples whose alternatives carry only the selected
    attributes — ids, iteration order, alternative probabilities and
    the selected values are exactly those of the base store, so key
    strategies (which read nothing else) evaluate identically while the
    unselected columns' bytes stay untouched.
    """

    def __init__(
        self, store: ColumnarXTupleStore, attributes: tuple[str, ...]
    ) -> None:
        self._store = store
        self._attributes = attributes
        column_of = store._all_columns()
        self._columns = {
            attribute: column_of[attribute] for attribute in attributes
        }

    @property
    def name(self) -> str:
        return self._store.name

    @property
    def schema(self) -> Schema:
        return Schema(self._attributes)

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        return self._store.tuple_ids

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[XTuple]:
        store = self._store
        for segment in range(len(store._segment_files)):
            for position in range(len(store._segment_ids[segment])):
                yield store._decode(segment, position, self._columns)

    def __repr__(self) -> str:
        return (
            f"ColumnarProjection({self._store.path!r}, "
            f"attributes={self._attributes!r})"
        )


__all__ = [
    "COLUMNAR_LAYOUT",
    "ColumnarProjection",
    "ColumnarXTupleStore",
    "DEFAULT_MAX_OPEN_SEGMENTS",
    "DEFAULT_MAX_PAGES",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_SEGMENT_SIZE",
    "MANIFEST_NAME",
    "PageCacheInfo",
    "QUARANTINE_DIR",
    "QuarantinedSegment",
    "STORE_FORMAT",
    "SegmentIntegrity",
    "StoreVerification",
    "spill_relation",
]
