"""Mutable session view + append-only journal for incremental detection.

A long-running detection session sees *deltas* — batches of new,
changed or retracted x-tuples arriving against a large, already-planned
base — but every storage backend in this package is read-only by
contract (the engine only ever reads through a store).  This module
supplies the two pieces that reconcile the contracts:

* :class:`SessionStore` — a mutable *overlay* over any read-only
  :class:`~repro.pdb.storage.base.XTupleStore` (in-memory relation,
  spilled store, multi-source view).  Upserts of existing ids replace
  the base tuple in place, deletes hide it, and genuinely new ids are
  appended after the base — so the store's iteration order equals the
  order of the materialized union ``base ⊎ deltas``, which is what
  keeps incremental decisions bitwise-comparable to a from-scratch run
  over that union.  The view satisfies the full read protocol, so
  planning, fingerprinting and execution consume it like any relation.
  When the base is itself source-tagged (a
  :class:`~repro.pdb.storage.multi.MultiSourceStore`), the view
  forwards ``source_of``/``source_names`` and tags appended tuples with
  :data:`DELTA_SOURCE` — the ℛ1/ℛ2 consolidation scenario with the
  delta as the second source.

* :class:`SessionJournal` — the appendable on-disk form of a session: a
  journal of upsert/delete batches (one CRC-framed record per ingest,
  so a restart replays the exact overlay and a torn batch not at all)
  plus a snapshot document the service layer uses for its retained
  decisions — an atomically-replaced base and an append-only log of
  what each later save changed (both logs are :class:`FramedLog`
  files).  Snapshot staleness is safe by
  construction: fingerprints cover the decision-relevant content, so a
  stale index simply fails to match and the refresh recomputes — never
  serves wrong retained state.

The overlay also keeps the memos a refresh reads, so its planning
cost follows the delta rather than the view:

* per tuple — content fingerprints and certain blocking keys, each
  dropped for an id whenever it changes, so a refresh re-hashes and
  re-keys changed tuples only;
* per partition — the block partitions of each certain blocking key
  (by ``(label, members)``), the source-tagged copy of each partition
  object and each partition object's digest together with the member
  fingerprints it covers.  These need no invalidation: a block's
  partition is a function of its label and members, a tuple id never
  changes source, and a digest is reused only while its member
  fingerprints are unchanged.  Each is rebuilt by every refresh to
  hold the current plan's entries only, so none grows with ingests.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import Any

from repro.pdb.errors import SchemaMismatchError
from repro.pdb.io import (
    decode_xtuple,
    encode_xtuple,
    write_text_atomic,
)
from repro.pdb.storage.base import XTupleStore, project_xtuple
from repro.pdb.xtuples import XTuple

#: Source tag of tuples appended to a session (ids the base never
#: held), used when the base view is itself source-tagged.
DELTA_SOURCE = "Δ"

#: File names inside a session journal directory.
JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
DELTA_NAME = "snapshot.delta.jsonl"


class SessionStore:
    """Mutable overlay view over a read-only x-tuple store.

    Iteration order — the order that fixes candidate-pair emission and
    therefore result order — is the base's insertion order with deleted
    ids skipped and replaced ids substituted in place, followed by
    appended ids in arrival order.  That is exactly the iteration order
    of the materialized union of the base with every applied delta, so
    detection over the view is bitwise-comparable to a from-scratch
    detection over that union.

    >>> from repro.pdb.relations import XRelation
    >>> from repro.pdb.xtuples import TupleAlternative, XTuple
    >>> def xt(t, n):
    ...     return XTuple(t, (TupleAlternative({"name": n}, 1.0),))
    >>> base = XRelation("R", ("name",), [xt("a", "anna"), xt("b", "bob")])
    >>> view = SessionStore(base)
    >>> view.upsert(xt("c", "carl"))
    >>> view.upsert(xt("b", "bert"))
    >>> view.delete("a")
    >>> [t.tuple_id for t in view], view.get("b").alternatives[0]["name"].support
    (['b', 'c'], ('bert',))
    >>> base.get("b").alternatives[0]["name"].support  # base untouched
    ('bob',)
    """

    def __init__(self, base: XTupleStore, *, name: str | None = None) -> None:
        self._base = base
        self.schema = base.schema
        self.name = name if name is not None else f"{base.name}+Δ"
        self._replaced: dict[str, XTuple] = {}
        self._added: dict[str, XTuple] = {}
        self._deleted: set[str] = set()
        self._ids_cache: tuple[str, ...] | None = None
        #: Per-tuple memos, each valid for the ids it holds: content
        #: fingerprints, and the blocking-key values of every
        #: ``(key parts, strategy)`` a planner asked for.  Upsert and
        #: delete of an id drop it from all of them.
        self.fingerprints: dict[str, str] = {}
        self._key_memos: dict[tuple, dict[str, str]] = {}
        #: Blocking keys computed through :meth:`key_memo` users.
        self.keys_computed = 0
        #: Per-partition memos of the last plan (see the module docs):
        #: block partitions per :meth:`partition_memo` key, tagged
        #: copies (:func:`~repro.matching.executor.multisource.tag_plan_sources`)
        #: and digests (:func:`~repro.reduction.plan.plan_fingerprints`),
        #: the latter two keyed by ``id(partition)``.
        self._partition_memos: dict[tuple, dict] = {}
        self.tagged_partitions: dict[int, tuple] = {}
        self.partition_digests: dict[int, tuple] = {}
        #: Partitions the planner built anew rather than reused, as
        #: counted where they are source-tagged.
        self.partitions_built = 0

    # ------------------------------------------------------------------
    # Mutation (the only writable surface in the storage package)
    # ------------------------------------------------------------------

    def _check_schema(self, xtuple: XTuple) -> None:
        expected = self.schema.attributes
        for alternative in xtuple.alternatives:
            if tuple(alternative.attributes) != expected:
                raise SchemaMismatchError(
                    f"x-tuple {xtuple.tuple_id!r} does not match session "
                    f"schema {expected}: alternative has "
                    f"{tuple(alternative.attributes)}"
                )

    def check_batch(
        self, upserts: Sequence[XTuple], deletes: Sequence[str]
    ) -> None:
        """Raise what applying *upserts*, then *deletes*, would raise,
        applying nothing: ``SchemaMismatchError`` for an upsert off the
        schema, ``KeyError`` for a delete of an id that is absent once
        the upserts and the deletes before it apply."""
        for xtuple in upserts:
            self._check_schema(xtuple)
        upserted = {xtuple.tuple_id for xtuple in upserts}
        deleted: set[str] = set()
        for tuple_id in deletes:
            if tuple_id in deleted or (
                tuple_id not in upserted and tuple_id not in self
            ):
                raise KeyError(tuple_id)
            deleted.add(tuple_id)

    def upsert(self, xtuple: XTuple) -> None:
        """Insert a new x-tuple, or replace the one holding its id.

        Ids the base holds are replaced *in place* (keeping their
        position in iteration order, un-hiding a previously deleted
        id); new ids append after the base in arrival order.
        """
        self._check_schema(xtuple)
        tuple_id = xtuple.tuple_id
        self._forget(tuple_id)
        if tuple_id in self._added:
            self._added[tuple_id] = xtuple
            return
        if tuple_id in self._base:
            self._deleted.discard(tuple_id)
            self._replaced[tuple_id] = xtuple
            self._ids_cache = None
            return
        self._added[tuple_id] = xtuple
        self._ids_cache = None

    def delete(self, tuple_id: str) -> None:
        """Retract one x-tuple from the view (``KeyError`` if absent)."""
        if tuple_id in self._added:
            del self._added[tuple_id]
        elif tuple_id in self._base and tuple_id not in self._deleted:
            self._deleted.add(tuple_id)
            self._replaced.pop(tuple_id, None)
        else:
            raise KeyError(tuple_id)
        self._ids_cache = None
        self._forget(tuple_id)

    def _forget(self, tuple_id: str) -> None:
        """Drop *tuple_id* from every per-tuple memo."""
        self.fingerprints.pop(tuple_id, None)
        for memo in self._key_memos.values():
            memo.pop(tuple_id, None)

    def key_memo(self, key, strategy) -> dict[str, str]:
        """The ``tuple id → key value`` memo of one blocking key.

        Keyed by the key's parts and the conflict-resolution strategy:
        a certain key is a function of its x-tuple alone (Section V),
        so an entry stays valid until its id is upserted or deleted.
        Filled by :func:`repro.reduction.plan.tuple_keys`.
        """
        return self._key_memos.setdefault((key.parts, strategy), {})

    def partition_memo(self, key, strategy) -> dict:
        """The ``(label, members) → partition`` memo of one blocking key.

        Read and rebuilt by
        :func:`~repro.reduction.plan.plan_from_blocks`: a block whose
        label and members did not change keeps its partition object.
        """
        return self._partition_memos.setdefault((key.parts, strategy), {})

    def apply(self, operation: Mapping) -> None:
        """Apply one journal operation document (see :class:`SessionJournal`)."""
        kind = operation.get("op")
        if kind == "upsert":
            self.upsert(decode_xtuple(operation["tuple"]))
        elif kind == "delete":
            self.delete(operation["id"])
        else:
            raise ValueError(f"unknown session operation {kind!r}")

    @property
    def overlay_size(self) -> int:
        """Number of ids the overlay currently diverges from the base on."""
        return len(self._replaced) + len(self._added) + len(self._deleted)

    # ------------------------------------------------------------------
    # XTupleStore protocol
    # ------------------------------------------------------------------

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        ids = self._ids_cache
        if ids is None:
            deleted = self._deleted
            ids = tuple(
                tuple_id
                for tuple_id in self._base.tuple_ids
                if tuple_id not in deleted
            ) + tuple(self._added)
            self._ids_cache = ids
        return ids

    def __iter__(self) -> Iterator[XTuple]:
        deleted = self._deleted
        replaced = self._replaced
        for xtuple in self._base:
            tuple_id = xtuple.tuple_id
            if tuple_id in deleted:
                continue
            yield replaced.get(tuple_id, xtuple)
        yield from self._added.values()

    def __len__(self) -> int:
        return len(self._base) - len(self._deleted) + len(self._added)

    def __contains__(self, tuple_id: str) -> bool:
        if tuple_id in self._added:
            return True
        if tuple_id in self._deleted:
            return False
        return tuple_id in self._base

    def get(self, tuple_id: str) -> XTuple:
        if tuple_id in self._added:
            return self._added[tuple_id]
        if tuple_id in self._deleted:
            raise KeyError(tuple_id)
        overlay = self._replaced.get(tuple_id)
        if overlay is not None:
            return overlay
        return self._base.get(tuple_id)

    def fetch(self, tuple_ids: Iterable[str]) -> Mapping[str, XTuple]:
        """Working-set fetch: overlay ids served here, the rest batched.

        Base ids are fetched through the base store in one batch (the
        columnar store decodes each uncached one once), then the merged
        mapping is re-keyed into request order.
        """
        requested = list(tuple_ids)
        base_ids: list[str] = []
        for tuple_id in requested:
            if tuple_id in self._deleted:
                raise KeyError(tuple_id)
            if (
                tuple_id not in self._added
                and tuple_id not in self._replaced
            ):
                base_ids.append(tuple_id)
        from_base = self._base.fetch(base_ids) if base_ids else {}
        working_set: dict[str, XTuple] = {}
        for tuple_id in requested:
            if tuple_id in self._added:
                working_set[tuple_id] = self._added[tuple_id]
            elif tuple_id in self._replaced:
                working_set[tuple_id] = self._replaced[tuple_id]
            else:
                working_set[tuple_id] = from_base[tuple_id]
        return working_set

    def project(self, attributes: Iterable[str]) -> "SessionProjection":
        """An overlay scan over a subset of attributes.

        The base's stretch comes through its own ``project`` (columnar
        bases serve it from the selected columns alone); overlay
        tuples — replaced in place, appended after — are projected in
        memory.  The scan reads the session's *live* overlay state at
        iteration time, like ``__iter__``.
        """
        selected = tuple(dict.fromkeys(attributes))
        known = set(self.schema.attributes)
        for attribute in selected:
            if attribute not in known:
                raise KeyError(
                    f"attribute {attribute!r} is not in the schema "
                    f"{self.schema.attributes!r}"
                )
        return SessionProjection(self, selected)

    # ------------------------------------------------------------------
    # Source tagging (consolidation-scenario support)
    # ------------------------------------------------------------------

    @property
    def source_names(self) -> tuple[str, ...]:
        """Source tags of the view: the base's, plus Δ once ids append.

        When the base is itself source-tagged (a multi-source view) its
        tags pass through; a plain base contributes its name.  The
        appended delta forms one additional source, so consolidation
        planning (``cross_source_plan``) can restrict a session plan to
        base-versus-delta pairs.
        """
        names = getattr(self._base, "source_names", None)
        base_names = tuple(names) if names is not None else (self._base.name,)
        if self._added:
            return base_names + (DELTA_SOURCE,)
        return base_names

    def source_of(self, tuple_id: str) -> str:
        """The source tag a tuple id belongs to (``KeyError`` if absent)."""
        if tuple_id in self._added:
            return DELTA_SOURCE
        if tuple_id in self._deleted or tuple_id not in self._base:
            raise KeyError(tuple_id)
        base_source = getattr(self._base, "source_of", None)
        if base_source is not None:
            return base_source(tuple_id)
        return self._base.name

    def __repr__(self) -> str:
        return (
            f"SessionStore({self._base.name!r}, tuples={len(self)}, "
            f"+{len(self._added)} ~{len(self._replaced)} "
            f"-{len(self._deleted)})"
        )


class SessionProjection:
    """A read-only overlay scan over a subset of attributes.

    Mirrors :meth:`SessionStore.__iter__` — deleted ids skipped,
    replaced ids substituted in place, appends last — with the base
    served column-wise when it can and overlay tuples projected via
    :func:`~repro.pdb.storage.base.project_xtuple`.
    """

    def __init__(
        self, session: SessionStore, attributes: tuple[str, ...]
    ) -> None:
        self._session = session
        self._attributes = attributes

    @property
    def name(self) -> str:
        return self._session.name

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attributes

    @property
    def tuple_ids(self) -> tuple[str, ...]:
        return self._session.tuple_ids

    def __len__(self) -> int:
        return len(self._session)

    def __iter__(self) -> Iterator[XTuple]:
        session = self._session
        base = session._base
        project = getattr(base, "project", None)
        if callable(project):
            try:
                scan = project(self._attributes)
            except (KeyError, TypeError):
                scan = base
        else:
            scan = base
        deleted = session._deleted
        replaced = session._replaced
        for xtuple in scan:
            tuple_id = xtuple.tuple_id
            if tuple_id in deleted:
                continue
            overlay = replaced.get(tuple_id)
            if overlay is not None:
                yield project_xtuple(overlay, self._attributes)
            else:
                yield xtuple
        for xtuple in session._added.values():
            yield project_xtuple(xtuple, self._attributes)

    def __repr__(self) -> str:
        return (
            f"SessionProjection({self._session.name!r}, "
            f"attributes={self._attributes!r})"
        )


class FramedLog:
    """One append-only log file of CRC-framed records.

    A record is one line, ``header \\t payload \\n``: the header is a
    compact JSON object carrying the writer's fields plus ``seq`` (1, 2,
    … over the framed records), ``crc`` (CRC32) and ``len`` (byte
    length) of the payload.  Lines without a tab are unframed legacy
    lines, yielded as their decoded JSON object.  Reading stops at the
    first line that is cut short, fails its CRC or breaks the ``seq``
    numbering: everything before it is the *committed* prefix,
    everything from it on the torn tail, which the next :meth:`append`
    truncates.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: Byte offset where the committed prefix ends, and the ``seq``
        #: of its last framed record; ``None`` until a :meth:`records`
        #: pass or a write established them.
        self.end: int | None = None
        self.seq = 0
        #: Lines past the committed prefix at the last full pass.
        self.torn = 0

    def records(self) -> Iterator[tuple[dict | None, Any]]:
        """``(header, payload bytes)`` per committed record, in order;
        ``(None, object)`` per legacy line.

        A consumer that stops early leaves :attr:`end` after the last
        record it took, so a later append overwrites the rest.
        """
        offset = 0
        self.end = 0
        self.seq = 0
        self.torn = 0
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            for line in handle:
                record = _parse_line(line, self.seq + 1)
                if record is None:
                    self.torn = 1 + sum(1 for _ in handle)
                    return
                offset += len(line)
                if record is not _BLANK:
                    yield record
                    if record[0] is not None:
                        self.seq += 1
                self.end = offset

    def frame(self, header: Mapping, payload: str) -> bytes:
        """The next record: *header* plus ``seq``, the payload's CRC32
        and length, a tab, the payload, a newline."""
        if self.end is None:
            for _ in self.records():
                pass
        body = payload.encode("utf-8")
        head = json.dumps(
            {
                **header,
                "seq": self.seq + 1,
                "crc": zlib.crc32(body),
                "len": len(body),
            },
            separators=(",", ":"),
        )
        return head.encode("utf-8") + b"\t" + body + b"\n"

    def append(self, record: bytes, boundary: str, hook) -> None:
        """Durably write the record :meth:`frame` just built after the
        committed prefix.

        *hook* (see :attr:`SessionJournal.write_hook`) is called with
        *boundary* once the torn tail is gone, just before the write.
        """
        mode = "r+b" if os.path.exists(self.path) else "wb"
        with open(self.path, mode) as handle:
            handle.seek(self.end)
            handle.truncate()
            if hook is not None:
                hook(boundary, self.path, record)
            handle.write(record)
            handle.flush()
            os.fsync(handle.fileno())
        self.end += len(record)
        self.seq += 1

    def truncate(self, hook) -> None:
        """Durably empty the log (*hook* as for :meth:`append`)."""
        if hook is not None:
            hook("truncate", self.path, b"")
        if os.path.exists(self.path):
            with open(self.path, "r+b") as handle:
                handle.truncate(0)
                os.fsync(handle.fileno())
        self.end = 0
        self.seq = 0


#: Marker :func:`_parse_line` returns for blank lines.
_BLANK = object()


def _parse_line(line: bytes, seq: int):
    """A committed record of *line*, :data:`_BLANK`, or ``None`` (torn)."""
    if not line.endswith(b"\n"):
        return None
    head, tab, body = line[:-1].partition(b"\t")
    try:
        if not tab:
            if not head.strip():
                return _BLANK
            legacy = json.loads(head)
            return (None, legacy) if isinstance(legacy, dict) else None
        header = json.loads(head)
    except ValueError:
        return None
    if (
        not isinstance(header, dict)
        or header.get("seq") != seq
        or header.get("len") != len(body)
        or header.get("crc") != zlib.crc32(body)
    ):
        return None
    return header, body


class SessionJournal:
    """Appendable on-disk persistence of one detection session.

    Layout under *path*:

    * ``journal.jsonl`` — one :class:`FramedLog` record per ingest,
      header ``{"seq", "ops", "crc", "len"}``, payload the JSON array of
      the batch's operations (``{"op": "upsert", "tuple": {...exact
      codec...}}`` / ``{"op": "delete", "id": ...}``).  Replaying the
      committed records over the base store rebuilds the session's
      overlay exactly; a batch is applied whole or not at all.
      Unframed one-operation lines of older journals still replay.
    * ``snapshot.json`` — the *base* of a document the service layer
      owns (its ``format`` and, optionally, retained decisions
      ``retained``: one entry per partition fingerprint, in format 2 a
      packed ``[statuses, similarities]`` slice, see
      :data:`repro.service.session.SNAPSHOT_FORMAT`), tagged with a
      random ``generation`` and atomically replaced.
    * ``snapshot.delta.jsonl`` — what later saves added, one
      :class:`FramedLog` record each, header ``{"gen", "seq", "crc",
      "len"}``, payload ``{"retained": {fingerprint: slice},
      "dropped": [fingerprint, ...]}`` (each key optional).

    :meth:`load_snapshot` folds the records of the base's generation
    into the base, drops before additions per record.  Similarity-cache
    rows (``caches``) that older directories hold in the base or in a
    delta record are ignored: decisions are the state worth keeping,
    and a cache re-scores its misses.  A compaction
    (:meth:`save_snapshot`) writes a new base under a new generation,
    then truncates the delta log; :meth:`append_snapshot_delta` declines
    (returns ``None``) until this journal wrote or loaded a base, and
    whenever the deltas would outgrow it — so a fold reads at most
    twice the base.

    A cut at any write leaves the committed prefix of each log intact:
    a torn journal batch is not replayed (its ingest never happened),
    a torn or stale delta only ends the fold early.  Staleness is safe:
    the index holds content fingerprints, so a missing entry only makes
    its partition recompute.  Dropped tail lines are counted in
    :attr:`torn_records`.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        os.makedirs(self.path, exist_ok=True)
        self._journal = FramedLog(os.path.join(self.path, JOURNAL_NAME))
        self._deltas = FramedLog(os.path.join(self.path, DELTA_NAME))
        self._snapshot_path = os.path.join(self.path, SNAPSHOT_NAME)
        #: The base this journal last wrote or loaded: its generation
        #: and size (the delta log holds what was committed after it).
        self._generation: str | None = None
        self._base_bytes = 0
        #: Called before every durable write of the directory as
        #: ``(boundary, path, data)``, *boundary* one of ``"journal"``,
        #: ``"delta"`` (a record append), ``"replace"`` (the base's
        #: atomic replace) or ``"truncate"`` (emptying the delta log);
        #: raising is a fault injection (see
        #: :func:`repro.testing.faults.cut_write`).  ``None``: no hook.
        self.write_hook = None

    @property
    def torn_records(self) -> int:
        """Torn or corrupt records the last reads dropped (both logs)."""
        return self._journal.torn + self._deltas.torn

    # -- operations ----------------------------------------------------

    @staticmethod
    def upsert_op(xtuple: XTuple) -> dict:
        """The journal document recording one upsert (exact codec)."""
        return {"op": "upsert", "tuple": encode_xtuple(xtuple, exact=True)}

    @staticmethod
    def delete_op(tuple_id: str) -> dict:
        """The journal document recording one delete."""
        return {"op": "delete", "id": tuple_id}

    def append_ops(self, operations: Iterable[Mapping]) -> int:
        """Append one batch of operations as one record, durably."""
        batch = list(operations)
        if not batch:
            return 0
        # No sort_keys: encoded alternatives carry attribute order,
        # which replay must reproduce byte for byte.
        record = self._journal.frame(
            {"ops": len(batch)}, json.dumps(batch, separators=(",", ":"))
        )
        self._journal.append(record, "journal", self.write_hook)
        return len(batch)

    def ops(self) -> Iterator[dict]:
        """Replay the committed operations in append order."""
        for header, payload in self._journal.records():
            if header is None:
                yield payload
                continue
            batch = json.loads(payload)
            if len(batch) != header.get("ops"):
                raise ValueError(
                    f"journal batch {header.get('seq')} holds {len(batch)} "
                    f"operations, its header says {header.get('ops')}"
                )
            yield from batch

    def replay_into(self, store: SessionStore) -> int:
        """Apply every journaled operation to *store*; returns the count."""
        count = 0
        for operation in self.ops():
            store.apply(operation)
            count += 1
        return count

    # -- snapshot ------------------------------------------------------

    def save_snapshot(self, document: Mapping) -> int:
        """Compact: write *document* as a new base generation (atomic
        replace), then truncate the delta log.  Returns bytes written."""
        generation = os.urandom(8).hex()
        text = json.dumps(
            {**document, "generation": generation}, separators=(",", ":")
        )
        data = text.encode("utf-8")
        if self.write_hook is not None:
            self.write_hook("replace", self._snapshot_path, data)
        write_text_atomic(self._snapshot_path, text)
        self._deltas.truncate(self.write_hook)
        self._generation = generation
        self._base_bytes = len(data)
        return len(data)

    def append_snapshot_delta(self, delta: Mapping) -> int | None:
        """Append one delta record to the base this journal wrote or
        loaded.

        Returns the bytes written (0 for an empty delta, which writes
        nothing), or ``None`` when the caller must compact instead: no
        base of a generation written or loaded yet, or the delta log
        would outgrow the base.
        """
        if self._generation is None:
            return None
        if not delta:
            return 0
        record = self._deltas.frame(
            {"gen": self._generation}, json.dumps(delta, separators=(",", ":"))
        )
        if self._deltas.end + len(record) > self._base_bytes:
            return None
        self._deltas.append(record, "delta", self.write_hook)
        return len(record)

    def load_snapshot(self) -> dict | None:
        """The base snapshot with its generation's committed deltas
        folded in, or ``None``.  Later deltas append after the fold."""
        if not os.path.exists(self._snapshot_path):
            return None
        with open(self._snapshot_path, "rb") as snapshot:
            data = snapshot.read()
        document = json.loads(data)
        generation = document.get("generation")
        document.pop("caches", None)
        if generation is None:
            return document  # written before snapshots had delta logs
        for header, payload in self._deltas.records():
            if header is None or header.get("gen") != generation:
                break  # a compaction cut before its truncate
            delta = json.loads(payload)
            if "retained" in delta or "dropped" in delta:
                retained = document.setdefault("retained", {})
                for fingerprint in delta.get("dropped", ()):
                    retained.pop(fingerprint, None)
                retained.update(delta.get("retained", {}))
        self._generation = generation
        self._base_bytes = len(data)
        return document


__all__ = [
    "DELTA_NAME",
    "DELTA_SOURCE",
    "FramedLog",
    "JOURNAL_NAME",
    "SNAPSHOT_NAME",
    "SessionJournal",
    "SessionProjection",
    "SessionStore",
]
