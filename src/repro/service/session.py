"""Incremental detection sessions: delta-only re-detection.

A :class:`DetectionSession` keeps the products of a detect run alive
between calls — the blocking/sorting *plan* over the current view, a
partition *fingerprint index* and the per-partition *decisions* — so
that the next batch of upserts and deletes re-decides only the pairs
the delta actually changed.

Correctness rests on three properties of the underlying pipeline:

* A pair's decision is a pure function of its two x-tuples' exact
  content and the configured procedure (Section III, Fig. 6: every
  stage downstream of reduction sees nothing else).  So a pair whose
  members no ingest changed since it was decided keeps its decision,
  whichever partition of the new plan holds it.
* A partition's fingerprint
  (:func:`~repro.reduction.plan.partition_fingerprint`) hashes its pair
  sequence and its members' content, so *equal fingerprint ⇒
  bitwise-equal decisions*: a retained slice of equal fingerprint is
  spliced in verbatim.  A fingerprint-stale partition (new block,
  changed member, shifted window span) re-decides only its pairs that
  have a member an ingest changed or that the previous result did not
  hold; the rest come from the previous result's stale slices, in the
  partition's pair order.
* The session view (:class:`~repro.pdb.storage.SessionStore`) iterates
  in materialized-union order, so the refreshed plan — and therefore
  the merged decision sequence — equals the plan of a from-scratch
  detection over ``base ⊎ deltas``.

Staleness is safe by construction: the ids an ingest upserts or deletes
stay marked until a refresh completes, so a refresh that raises leaves
them to the next; retained state is never *wrongly* reused.

The session degrades gracefully to a full run: on the first
:meth:`~DetectionSession.detect` the retained index is empty, every
partition is stale, every pair is decided, and the refresh is an
ordinary plan-driven execution.  A re-opened session holds packed
slices without pair ids, which splice by fingerprint only, so its first
refresh re-decides whole stale partitions.  The matcher's similarity
caches and the session's coded view (each live tuple's Eq. 5 codes)
live across calls in memory, so later refreshes start warm and encode
only what an ingest changed; a journaled session persists only the
decisions, and a re-opened one re-encodes its tuples and re-scores its
misses.
"""

from __future__ import annotations

import base64
import os
import struct
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable

from repro.audit.manifest import build_manifest, run_environment, status_counts
from repro.matching.decision import Decision, MatchStatus
from repro.matching.engine import (
    CodedView,
    XTupleDecision,
    XTupleDecisionProcedure,
    _build_all,
)
from repro.matching.executor import (
    DetectionResult,
    ExecutionEngine,
    ExecutionSettings,
    ExecutionReport,
    FaultObserver,
    ProgressObserver,
    cross_source_plan,
    plan_sources,
)
from repro.pdb.errors import StorageError
from repro.pdb.storage import SessionJournal, SessionStore, XTupleStore
from repro.pdb.xtuples import XTuple
from repro.reduction import (
    CandidatePartition,
    CandidatePlan,
    delta_plan,
    members_of_pairs,
    plan_fingerprints,
)

#: Snapshot schema version; other versions are ignored on restore, so
#: a session re-decides what an older snapshot held and its first save
#: compacts to this one.  Format 2 packs each retained slice as
#: ``[statuses, similarities]`` (:func:`_pack_slice`); format 1 held
#: ``(left_id, right_id, status, similarity)`` rows.
SNAPSHOT_FORMAT = 2

#: ``MatchStatus.value`` → status, for unpacking slices.
_STATUSES = {status.value: status for status in MatchStatus}


def _pack_slice(decisions) -> list[str]:
    """A retained slice as ``[statuses, similarities]``, in plan pair
    order and without ids: one ``MatchStatus.value`` character per
    pair, and the base64 of the similarities as little-endian float64,
    which keeps every similarity bit for bit."""
    return [
        "".join([decision.decision.status.value for decision in decisions]),
        base64.b64encode(
            struct.pack(
                f"<{len(decisions)}d",
                *[decision.decision.similarity for decision in decisions],
            )
        ).decode("ascii"),
    ]


def _unpack_slice(pairs, packed) -> tuple[XTupleDecision, ...]:
    """The decisions of a :func:`_pack_slice` slice of the partition
    whose candidate pairs are *pairs*; :class:`StorageError` when the
    slice is malformed or does not hold one decision per pair.

    A slice is kept under its partition's fingerprint, which hashes the
    pair sequence, so the planned partition of equal fingerprint
    supplies the ids in order."""
    try:
        statuses, similarities = packed
        data = base64.b64decode(similarities, validate=True)
        if len(statuses) != len(pairs) or len(data) != 8 * len(pairs):
            raise ValueError(
                f"{len(statuses)} statuses and {len(data)} similarity "
                f"bytes for {len(pairs)} pairs"
            )
        lefts, rights = zip(*pairs) if pairs else ((), ())
        decisions = _build_all(
            Decision,
            list(map(_STATUSES.__getitem__, statuses)),
            struct.unpack(f"<{len(pairs)}d", data),
        )
        return tuple(
            _build_all(
                XTupleDecision, lefts, rights, decisions, [None] * len(pairs)
            )
        )
    except (KeyError, TypeError, ValueError) as error:
        raise StorageError(
            f"retained snapshot slice does not fit its partition: {error}"
        ) from error


def _splice(pairs, run, decided, pool) -> tuple[XTupleDecision, ...]:
    """The decisions of a stale partition's *pairs*, in order: those of
    its *run* (the pairs this refresh re-decided, in the same order) from
    *decided*, every other one from *pool*.  Every pair is popped from
    *pool*, so what is left there once all covered partitions are
    spliced is what the refresh retracts."""
    fresh = dict(zip(run, decided))
    pop = pool.pop
    return tuple([fresh.get(pair, pop(pair, None)) for pair in pairs])


@dataclass
class SessionStats:
    """Cumulative counters of one session's incremental behaviour."""

    #: Ingest batches applied.
    ingests: int = 0
    #: Refreshes run (initial detect included).
    refreshes: int = 0
    #: Upserts / deletes in the most recent ingest batch.
    last_upserts: int = 0
    last_deletes: int = 0
    #: Partitions across all refreshed plans.  Each planned partition
    #: is either *reused* — every decision comes from an earlier
    #: refresh: a retained slice of equal fingerprint, or a stale
    #: partition none of whose pairs needed re-deciding (one a
    #: delete-only ingest shrank) — or *executed*, the engine deciding
    #: at least one of its pairs, or else skipped under
    #: ``on_error="skip"``: planned = reused + executed + skipped.
    partitions_planned: int = 0
    partitions_reused: int = 0
    partitions_executed: int = 0
    #: Candidate pairs across all refreshed plans / actually decided by
    #: the engine (pairs with a member an ingest changed, pairs the
    #: previous result did not hold, and nothing of a skipped
    #: partition's failed attempts).
    pairs_planned: int = 0
    pairs_executed: int = 0
    #: Previously reported pairs retracted by later refreshes.
    tombstoned_pairs: int = 0
    #: Safety-gate trips observed across refreshes (a calibrated model
    #: whose gates tripped counts its trips once per refresh — every
    #: refresh it force-decides UNSURE is one more audit-worthy event).
    gate_trips: int = 0
    #: Snapshot bytes actually written (bases and delta records) and
    #: how many saves rewrote the base.
    snapshot_bytes: int = 0
    snapshot_compactions: int = 0
    #: Blocking keys computed by the planner (memoized keys excluded).
    keys_computed: int = 0
    #: Partitions the planner built anew across refreshes (memo
    #: misses); a partition of an untouched block is reused, not
    #: rebuilt, so after the first refresh this follows the delta.
    partitions_replanned: int = 0
    #: Torn or corrupt journal/snapshot records dropped on open.
    torn_records: int = 0

    def summary(self) -> str:
        """One-line operator summary of the session so far."""
        line = (
            f"ingests={self.ingests} refreshes={self.refreshes} "
            f"partitions {self.partitions_reused} reused / "
            f"{self.partitions_executed} executed of "
            f"{self.partitions_planned} planned; "
            f"pairs {self.pairs_executed}/{self.pairs_planned} decided, "
            f"{self.tombstoned_pairs} tombstoned"
        )
        line += (
            f"; {self.partitions_replanned} partitions replanned, "
            f"{self.keys_computed} keys computed"
        )
        if self.snapshot_bytes:
            line += (
                f"; snapshot {self.snapshot_bytes} B written, "
                f"{self.snapshot_compactions} compactions"
            )
        if self.torn_records:
            line += f"; {self.torn_records} torn records dropped"
        if self.gate_trips:
            line += f"; {self.gate_trips} gate trips (forced UNSURE)"
        return line


class DetectionSession:
    """A persistent, incrementally refreshable detection.

    Build one through :meth:`~repro.matching.DuplicateDetector.session`
    — the detector resolves its options (floors, kernel, execution
    settings) and prepares the base relation exactly as ``detect``
    would, so the session's first result is bitwise-identical to a
    one-shot ``detect`` over the same input.

    The session keeps one :class:`~repro.matching.engine.CodedView` for
    its lifetime and hands it to every refresh, so a tuple's Eq. 5
    codes are encoded once and reused until an ingest upserts or
    deletes its id (:meth:`~repro.matching.engine.CodedView.forget`).

    Parameters
    ----------
    procedure:
        The resolved Figure-6 decision procedure.
    reducer:
        The detector's search-space reduction strategy (the planner).
    base:
        The prepared base relation or store the session overlays.
    settings:
        The resolved execution settings; every refresh runs with
        them.
    journal:
        Optional session directory (or an opened
        :class:`~repro.pdb.storage.SessionJournal`).  When given, the
        journal's operations are replayed over the base on startup, the
        snapshot's fingerprint index (with its decisions, under
        ``keep_derivations=False``) is restored, and every ingest
        appends its operations durably.  Restored slices stay packed
        (:data:`SNAPSHOT_FORMAT`) until a refresh plans their
        partition; a snapshot of another format is not restored, and
        the session re-decides instead.
    within_sources:
        ``False`` restricts every refresh to cross-source pairs
        (:func:`~repro.matching.executor.cross_source_plan`) — the
        paper's ℛ1/ℛ2 consolidation question with the session delta as
        one more autonomous source.
    """

    def __init__(
        self,
        procedure: XTupleDecisionProcedure,
        reducer,
        base: XTupleStore,
        settings: ExecutionSettings | None = None,
        *,
        journal: SessionJournal | str | None = None,
        within_sources: bool = True,
        on_progress: ProgressObserver | None = None,
        on_fault: FaultObserver | None = None,
        audit: str | os.PathLike | bool | None = None,
        floors=None,
    ) -> None:
        self._procedure = procedure
        self._reducer = reducer
        self._store = SessionStore(base)
        self._within_sources = within_sources
        self._settings = (
            settings if settings is not None else ExecutionSettings()
        )
        self._on_progress = on_progress
        self._on_fault = on_fault
        self._audit = audit
        self._floors = floors

        #: Fingerprint → decisions of each partition the current result
        #: covers, in plan order.
        self._retained: dict[str, tuple[XTupleDecision, ...]] = {}
        #: Fingerprint → packed slice (:func:`_pack_slice`) restored
        #: from the snapshot and not yet hydrated: the next refresh
        #: unpacks those it plans and drops the rest.
        self._packed: dict[str, list[str]] = {}
        #: Ids upserted or deleted since the current result was decided;
        #: cleared when a refresh completes.
        self._changed: set[str] = set()
        self._result: DetectionResult | None = None
        #: Fingerprint → packed slice of what the journal's snapshot
        #: holds (empty when decisions are not persisted).  ``None``
        #: until a save or a restore; the first save of a session that
        #: restored nothing therefore compacts.
        self._saved: dict[str, list[str]] | None = None
        #: Every refresh's coded tuples (see the class docs).
        self._view = CodedView(procedure.matcher)

        self.stats = SessionStats()
        #: Report of the most recent refresh's execution (the pairs it
        #: re-decided), published by every refresh that plans a
        #: fingerprint-stale partition, even one whose pairs all splice;
        #: ``None`` until then.
        self.last_report: ExecutionReport | None = None
        #: Pairs retracted by the most recent refresh.
        self.tombstones: tuple[tuple[str, str], ...] = ()
        #: The most recent refresh's plan over the view (cross-source
        #: filtered when ``within_sources=False``) and its partition
        #: fingerprints, in plan order; ``None`` / ``()`` until then.
        self.last_plan: CandidatePlan | None = None
        self.last_fingerprints: tuple[str, ...] = ()
        #: One :class:`~repro.audit.AuditManifest` per refresh, when the
        #: session was opened with ``audit`` (oldest first).
        self.manifests: list = []

        if isinstance(journal, str):
            journal = SessionJournal(journal)
        self._journal = journal
        if self._journal is not None:
            self._journal.replay_into(self._store)
            self._restore_snapshot()
            self.stats.torn_records = self._journal.torn_records

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def store(self) -> SessionStore:
        """The session's overlay view (read it; mutate via ingest)."""
        return self._store

    @property
    def journal(self) -> SessionJournal | None:
        """The session's journal, when persistent."""
        return self._journal

    def detect(self) -> DetectionResult:
        """The current result, running the initial detection if needed."""
        if self._result is None:
            return self.refresh()
        return self._result

    def ingest(
        self,
        upserts: Iterable[XTuple] = (),
        *,
        deletes: Iterable[str] = (),
    ) -> DetectionResult:
        """Apply one delta batch and refresh, re-deciding only the pairs
        it changed.

        Upserts of known ids replace the stored x-tuple; new ids append
        after the base in arrival order.  The whole batch is checked
        first (:meth:`~repro.pdb.storage.SessionStore.check_batch`): a
        batch that raises leaves store, coded view and journal as they
        were.  Operations are journaled (when the session is
        persistent) before they apply, so a crash mid-refresh replays
        to the post-ingest view.
        """
        upserts = list(upserts)
        deletes = list(deletes)
        self._store.check_batch(upserts, deletes)
        operations = list(map(SessionJournal.upsert_op, upserts))
        operations += map(SessionJournal.delete_op, deletes)
        if self._journal is not None and operations:
            self._journal.append_ops(operations)
        for xtuple in upserts:
            self._store.upsert(xtuple)
        for tuple_id in deletes:
            self._store.delete(tuple_id)
        changed = [xtuple.tuple_id for xtuple in upserts] + deletes
        self._view.forget(changed)
        self._changed.update(changed)
        self.stats.ingests += 1
        self.stats.last_upserts = len(upserts)
        self.stats.last_deletes = len(deletes)
        result = self.refresh()
        if self._journal is not None:
            self.save()
        return result

    def refresh(self) -> DetectionResult:
        """Re-plan the view and re-decide only the pairs of
        fingerprint-stale partitions that an ingest changed or that the
        previous result lacks, splicing every other decision in plan
        order."""
        view = self._store
        plan = plan_sources(self._reducer, view)
        if not self._within_sources:
            plan = cross_source_plan(plan, view)
        fingerprints = plan_fingerprints(
            view,
            plan,
            tuple_fingerprints=view.fingerprints,
            partition_digests=view.partition_digests,
        )
        self.last_plan = plan
        self.last_fingerprints = fingerprints
        known = self._retained.keys() | self._packed.keys()
        stale = delta_plan(plan, fingerprints, known)

        # Pair → previous decision, from the slices the new plan no
        # longer holds by fingerprint, in previous plan order.  Empty on
        # session creation and on a re-open (packed slices carry no
        # ids), so every pair of a stale partition then runs.
        planned = set(fingerprints)
        pool: dict[tuple[str, str], XTupleDecision] = {
            (decision.left_id, decision.right_id): decision
            for fingerprint, slice_decisions in self._retained.items()
            if fingerprint not in planned
            for decision in slice_decisions
        }
        # Fingerprint → the pairs of a stale partition to re-decide: those
        # with a changed member or new to the pool.
        changed = self._changed
        runs: dict[str, tuple[tuple[str, str], ...]] = {}
        subplan: list[CandidatePartition] = []
        stale_fps = [fp for fp in fingerprints if fp not in known]
        for partition, fingerprint in zip(stale.partitions, stale_fps):
            pairs = tuple(
                [
                    pair
                    for pair in partition.pairs
                    if pair not in pool or not changed.isdisjoint(pair)
                ]
            )
            if len(pairs) < len(partition.pairs):
                partition = replace(
                    partition, pairs=pairs, members=members_of_pairs(pairs)
                )
            if pairs:
                runs[fingerprint] = pairs
                subplan.append(partition)

        executed: dict[str, tuple[XTupleDecision, ...]] = {}
        pairs_decided = 0
        if stale.partitions:
            engine = ExecutionEngine(
                self._procedure,
                self._settings,
                observer=self._on_progress,
                fault_observer=self._on_fault,
            )
            # Published before execution so a raising refresh still
            # exposes the partial counters (matching detect()).
            self.last_report = engine.report
            # Sub-partitions keep their partition's label; under
            # on_error="skip" supervision may drop slices, so realign
            # by first pair (slices arrive in plan order).
            pending = iter(runs.items())
            delta = replace(stale, partitions=tuple(subplan))
            for piece in engine.execute(view, delta, self._view):
                first = piece.decisions[0]
                head = (first.left_id, first.right_id)
                for fingerprint, pairs in pending:
                    if pairs[0] == head:
                        break
                executed[fingerprint] = piece.decisions
            pairs_decided = engine.report.decided_pairs

        decisions: list[XTupleDecision] = []
        covered: list = []
        retained: dict[str, tuple] = {}
        partition_counts: dict[str, list[int]] = {}
        skipped: list[str] = []
        reused = 0
        for partition, fingerprint in zip(plan.partitions, fingerprints):
            pairs = partition.pairs
            if fingerprint in self._retained:
                slice_decisions = self._retained[fingerprint]
            elif fingerprint in self._packed:
                slice_decisions = _unpack_slice(
                    pairs, self._packed[fingerprint]
                )
            elif fingerprint in runs and fingerprint not in executed:
                skipped.append(partition.label)
                continue  # partition skipped by on_error="skip"
            else:
                slice_decisions = _splice(
                    pairs,
                    runs.get(fingerprint, ()),
                    executed.get(fingerprint, ()),
                    pool,
                )
            reused += fingerprint not in runs
            retained[fingerprint] = slice_decisions
            decisions.extend(slice_decisions)
            if self._settings.keep_compared_pairs:
                covered.append(pairs)
            if self._audit:
                partition_counts[partition.label] = status_counts(
                    slice_decisions
                )

        # What the pool still holds, no covered partition holds: the
        # previous result's pairs minus the current result's.
        self.tombstones = tuple(pool)
        self._retained = retained
        self._packed = {}
        self._changed = set()

        self.stats.refreshes += 1
        self.stats.partitions_planned += len(plan.partitions)
        self.stats.partitions_executed += len(executed)
        self.stats.partitions_reused += reused
        self.stats.pairs_planned += plan.total_pairs
        self.stats.pairs_executed += pairs_decided
        self.stats.tombstoned_pairs += len(self.tombstones)
        self.stats.gate_trips += len(self.gate_trips)
        self.stats.keys_computed = view.keys_computed
        self.stats.partitions_replanned = view.partitions_built

        if self._audit:
            self._record_manifest(fingerprints, partition_counts, skipped)

        self._result = DetectionResult(
            decisions=tuple(decisions),
            compared_pairs=frozenset(chain.from_iterable(covered)),
            relation_size=len(view),
        )
        return self._result

    @property
    def gate_trips(self) -> tuple:
        """The decision model's tripped safety gates (empty when sane).

        Non-empty exactly when the session's model is a
        :class:`~repro.matching.decision.CalibratedModel` whose
        calibration failed a gate — every refresh then force-decides
        UNSURE, and :attr:`SessionStats.gate_trips` accumulates one
        count per trip per refresh.
        """
        return tuple(getattr(self._procedure.model, "gate_trips", ()))

    def _record_manifest(
        self,
        fingerprints,
        partition_counts: dict[str, list[int]],
        skipped: list[str],
    ) -> None:
        """Append (and possibly write) this refresh's audit manifest.

        Reuses the plan fingerprints the refresh already computed, so
        auditing adds no extra content hashing; the manifest is built
        exactly as ``DuplicateDetector.detect(audit=...)`` builds one,
        so a session refresh over some view fingerprints identically
        to a from-scratch audited detection over the same content.
        """
        manifest = build_manifest(
            procedure=self._procedure,
            plan_fingerprints=fingerprints,
            partition_counts=partition_counts,
            floors=self._floors,
            failures=skipped,
            environment={
                **run_environment(
                    self._settings, self._store, self._procedure
                ),
                "refresh": self.stats.refreshes,
            },
        )
        self.manifests.append(manifest)
        if not isinstance(self._audit, bool):
            directory = os.fspath(self._audit)
            os.makedirs(directory, exist_ok=True)
            manifest.write(
                os.path.join(
                    directory,
                    f"manifest-{self.stats.refreshes:04d}.json",
                )
            )

    def cache_hit_rates(self) -> dict[str, float]:
        """Per-attribute similarity-cache hit rates (live counters)."""
        return {
            attribute: cache.hit_rate
            for attribute, cache in self._matcher.cache_stats().items()
        }

    def save(self) -> None:
        """Persist the snapshot (the retained decisions, packed).

        Appends what changed since the last save as one delta record:
        the packed slices of fingerprints the snapshot lacks, and the
        fingerprints it holds that are no longer retained.  The first
        save of a session that restored nothing or a base without a
        generation, and a save whose deltas would outgrow the base,
        rewrite the base instead (see
        :class:`~repro.pdb.storage.SessionJournal`).  A slice is packed
        once, when first saved; restored slices not yet hydrated are
        written as they were read.
        """
        if self._journal is None:
            raise ValueError("session has no journal to save into")
        saved = self._saved
        slices: dict[str, list[str]] = {}
        if not self._settings.keep_derivations:
            earlier = saved or {}
            slices = {
                fingerprint: earlier.get(fingerprint)
                or _pack_slice(slice_decisions)
                for fingerprint, slice_decisions in self._retained.items()
            }
            slices.update(self._packed)
        written = None
        if saved is not None:
            delta: dict = {}
            added = {
                fingerprint: packed
                for fingerprint, packed in slices.items()
                if fingerprint not in saved
            }
            dropped = [
                fingerprint for fingerprint in saved if fingerprint not in slices
            ]
            if added:
                delta["retained"] = added
            if dropped:
                delta["dropped"] = dropped
            written = self._journal.append_snapshot_delta(delta)
        if written is None:
            document: dict = {"format": SNAPSHOT_FORMAT}
            if not self._settings.keep_derivations:
                document["retained"] = slices
            written = self._journal.save_snapshot(document)
            self.stats.snapshot_compactions += 1
        self.stats.snapshot_bytes += written
        self._saved = slices

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @property
    def _matcher(self):
        return self._procedure.matcher

    def _restore_snapshot(self) -> None:
        document = self._journal.load_snapshot()
        if not document or document.get("format") != SNAPSHOT_FORMAT:
            return
        if not self._settings.keep_derivations:
            self._packed = dict(document.get("retained") or {})
        # The restored state is what the snapshot holds: the next save
        # appends what changes after it.
        self._saved = dict(self._packed)

    def __repr__(self) -> str:
        return (
            f"DetectionSession({self._store!r}, "
            f"retained={len(self._retained) + len(self._packed)}, "
            f"refreshes={self.stats.refreshes})"
        )


__all__ = [
    "DetectionSession",
    "SNAPSHOT_FORMAT",
    "SessionStats",
]
