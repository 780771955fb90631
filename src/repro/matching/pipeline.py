"""End-to-end duplicate detection: the five steps of Section III.

:class:`DuplicateDetector` wires together

(A) data preparation — optional standardization hooks
    (:mod:`repro.preparation`),
(B) search space reduction — any pair generator
    (:mod:`repro.reduction`); defaults to the full cross product,
(C) attribute value matching — :class:`AttributeMatcher`,
(D) a decision model, lifted to x-tuples through
    :class:`XTupleDecisionProcedure` (Figure 6),
(E) verification — the returned :class:`DetectionResult` feeds directly
    into :mod:`repro.verification`.

Since the executor extraction, this module is a thin *configuration
facade*: the detector resolves its configuration (reducer, decision
procedure, threshold-pushdown clones, preparation hooks) into a
:class:`~repro.reduction.plan.CandidatePlan` and an
:class:`~repro.matching.executor.ExecutionEngine`, and the engine in
:mod:`repro.matching.executor` does everything between planning and the
per-pair decision — packing partitions into chunk-sized tasks, fault
supervision, streaming.  Inter-source detection
(:meth:`DuplicateDetector.detect_between`) plans source pairs over a
:class:`~repro.pdb.storage.MultiSourceStore` view — two spilled stores
are consolidated without ever materializing their union.

Every configuration produces exactly the decisions of the plain serial
pipeline, in the same order, for every storage backend.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import Protocol, runtime_checkable

from repro.audit.manifest import build_manifest, run_environment, status_counts
from repro.matching.comparison import AttributeMatcher
from repro.matching.decision.base import DecisionModel
from repro.matching.derivation import DerivationFunction
from repro.matching.engine import XTupleDecision, XTupleDecisionProcedure
from repro.matching.executor import (
    DEFAULT_CHUNK_SIZE,
    ExecutionEngine,
    ExecutionSettings,
    RetryPolicy,
    cross_source_plan,
    plan_sources,
    prune_disjoint_sources,
)
from repro.matching.executor.progress import FaultObserver, ProgressObserver
from repro.matching.executor.results import DetectionResult
from repro.matching.pushdown import SimilarityFloors
from repro.pdb.relations import ProbabilisticRelation, XRelation
from repro.pdb.storage import XTupleStore, combine_sources
from repro.reduction.plan import (
    DEFAULT_PARTITION_PAIRS,
    CandidatePlan,
    PlanBuilder,
    plan_candidates,
    plan_fingerprints,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DetectionResult",
    "DuplicateDetector",
    "FullComparison",
    "PairGenerator",
]


@runtime_checkable
class PairGenerator(Protocol):
    """Search-space reduction strategy: yields candidate tuple-id pairs."""

    def pairs(
        self, relation: XRelation
    ) -> Iterable[tuple[str, str]]:  # pragma: no cover
        ...


class FullComparison:
    """The unreduced search space: all ``n(n-1)/2`` unordered pairs."""

    def pairs(self, relation: XRelation) -> Iterable[tuple[str, str]]:
        ids = relation.tuple_ids
        for i, left in enumerate(ids):
            for right in ids[i + 1 :]:
                yield left, right

    def plan(self, relation: XRelation) -> CandidatePlan:
        """Contiguous row bands with roughly equal pair counts.

        Full comparison has no block structure, so partitions exist
        purely for scheduling: row ``i`` contributes ``n - 1 - i``
        pairs, and bands grow toward the tail to keep partitions
        balanced.  Band boundaries never change the concatenated pair
        order, so results are independent of the banding.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> relation = XRelation("R", ("name",), [
        ...     XTuple(f"t{i}", (TupleAlternative({"name": n}, 1.0),))
        ...     for i, n in enumerate(["anna", "anne", "bob"])])
        >>> plan = FullComparison().plan(relation)
        >>> [p.label for p in plan]
        ['rows[0:3]']
        >>> list(plan.pairs())
        [('t0', 't1'), ('t0', 't2'), ('t1', 't2')]
        """
        ids = relation.tuple_ids
        n = len(ids)
        builder = PlanBuilder()
        start = 0
        while start < n:
            end = start + 1
            estimated = n - 1 - start
            while end < n and estimated < DEFAULT_PARTITION_PAIRS:
                estimated += n - 1 - end
                end += 1
            builder.add(
                f"rows[{start}:{end}]", self._band_pairs(ids, start, end)
            )
            start = end
        return builder.build(relation_size=n, source=repr(self))

    @staticmethod
    def _band_pairs(
        ids: Sequence[str], start: int, end: int
    ) -> Iterator[tuple[str, str]]:
        n = len(ids)
        for i in range(start, end):
            left = ids[i]
            for j in range(i + 1, n):
                yield left, ids[j]

    def __repr__(self) -> str:
        return "FullComparison()"


#: Soft bound on memoized pruned pipeline clones per detector.  A
#: normal workload uses one ("auto") or a handful of configurations; a
#: float-cutoff sweep past the bound evicts the least recently used
#: clone (true LRU — the hot "auto" clone of an interleaved sweep is
#: never dropped by unrelated cutoffs).
_MAX_PRUNED_PROCEDURES = 8

class DuplicateDetector:
    """Configurable five-step duplicate detection pipeline.

    Parameters
    ----------
    matcher:
        Attribute value matching configuration (step C).
    model:
        Per-alternative decision model (step D).
    derivation:
        ϑ for x-tuple pairs; default expected similarity (Equation 6).
    reducer:
        Search-space reduction (step B); default full comparison.
    preparation:
        Optional relation-level preparation hook (step A): a callable
        ``XRelation -> XRelation`` applied before anything else, e.g.
        :func:`repro.preparation.standardize_relation` partially applied.
        :meth:`detect_between` applies it to *each source separately*,
        before any planning — per-source standardization of autonomous
        sources.
    final_classifier:
        Optional distinct classifier for the x-tuple level (step 3 of
        Figure 6); defaults to the model's classifier.

    Attributes
    ----------
    last_report:
        The :class:`~repro.matching.executor.ExecutionReport` of the
        most recent ``detect`` / ``detect_between`` call
        (``None`` before the first run).  For
        streamed runs the counters finish filling as the slice iterator
        is consumed.
    """

    def __init__(
        self,
        matcher: AttributeMatcher,
        model: DecisionModel,
        *,
        derivation: DerivationFunction | None = None,
        reducer: PairGenerator | None = None,
        preparation: Callable[[XRelation], XRelation] | None = None,
        final_classifier=None,
    ) -> None:
        self._procedure = XTupleDecisionProcedure(
            matcher, model, derivation, classifier=final_classifier
        )
        self._reducer: PairGenerator = (
            reducer if reducer is not None else FullComparison()
        )
        self._preparation = preparation
        # Configured pipeline clones, memoized per (floors signature,
        # kernel): one configuration is built (and its caches created)
        # once, however many detect calls reuse it.  Bounded by true
        # LRU eviction: a cutoff sweep over many distinct floors only
        # ever drops the least recently used clone, so the hot clone
        # (e.g. "auto") survives the sweep.
        self._pruned_procedures: OrderedDict[
            tuple, XTupleDecisionProcedure
        ] = OrderedDict()
        self.last_report = None
        self.last_manifest = None

    @property
    def procedure(self) -> XTupleDecisionProcedure:
        """The underlying Figure-6 decision procedure."""
        return self._procedure

    def attribute_floors(self) -> SimilarityFloors | None:
        """The cutoffs ``min_similarity="auto"`` would push down.

        ``None`` means this configuration cannot prune (its model
        derives no safe floors) and auto mode silently runs exact; see
        :func:`repro.matching.pushdown.derive_floors`.
        """
        return self._procedure.attribute_floors()

    def _resolve_floors(
        self, min_similarity: float | Mapping[str, float] | str | None
    ) -> SimilarityFloors | None:
        """The pushdown floors a ``min_similarity`` option resolves to.

        ``None`` means the run stays exact — either because no floors
        were requested or because the resolved floors would never
        prune.
        """
        if min_similarity is None:
            return None
        if isinstance(min_similarity, str):
            if min_similarity != "auto":
                raise ValueError(
                    f"unknown min_similarity mode {min_similarity!r}; "
                    "expected 'auto', a float, a mapping, or None"
                )
            floors = self._procedure.attribute_floors()
        elif isinstance(min_similarity, bool):
            raise ValueError(
                f"min_similarity={min_similarity!r} is not a floor; "
                "expected 'auto', a float, a mapping, or None"
            )
        elif isinstance(min_similarity, Mapping):
            matcher = self._procedure.matcher
            for attribute, floor in min_similarity.items():
                if isinstance(floor, bool):
                    raise ValueError(
                        f"min_similarity floor {floor!r} of {attribute!r} "
                        "is not a number"
                    )
                try:
                    matcher.comparator_for(str(attribute))
                except KeyError:
                    raise ValueError(
                        f"min_similarity names attribute {attribute!r}, "
                        "which the matcher does not compare"
                    ) from None
            floors = SimilarityFloors(dict(min_similarity))
        else:
            floors = SimilarityFloors.uniform(float(min_similarity))
        if floors is not None and floors.is_exact:
            return None
        return floors

    def _resolve_run(
        self,
        min_similarity: float | Mapping[str, float] | str | None = None,
        *,
        kernel_backend: str | None = None,
        chunk_size: int | None = None,
        keep_derivations: bool = True,
        keep_compared_pairs: bool = True,
        retry: RetryPolicy | None = None,
        on_error: str = "raise",
    ) -> tuple[
        XTupleDecisionProcedure, SimilarityFloors | None, ExecutionSettings
    ]:
        """One run's ``(procedure, floors, settings)`` from its options.

        The one place :meth:`detect`, :meth:`detect_between` and
        :meth:`session` resolve their options.  ``None`` options keep
        the :class:`~repro.matching.executor.ExecutionSettings`
        defaults.  The configured pipeline clone is derived once per
        distinct ``(floors, kernel)`` combination and reused afterwards
        (with its similarity caches), evicting least-recently-used
        clones past the bound; this memo is the only one, so a clone's
        first run starts cold.
        """
        defaulted = dict(chunk_size=chunk_size, retry=retry)
        settings = ExecutionSettings(
            keep_derivations=keep_derivations,
            keep_compared_pairs=keep_compared_pairs,
            kernel_backend=kernel_backend,
            on_error=on_error,
            **{
                name: value
                for name, value in defaulted.items()
                if value is not None
            },
        )
        floors = self._resolve_floors(min_similarity)
        key = (
            floors.signature() if floors is not None else None,
            settings.kernel_backend,
        )
        memo = self._pruned_procedures
        procedure = memo.get(key)
        if procedure is None:
            base = self._procedure
            matcher = base.matcher.configured(
                floors, settings.kernel_backend
            )
            # A base matcher that nothing changed (no backend-aware or
            # bandable comparators) keeps the base procedure, no slot.
            if matcher is base.matcher:
                return base, floors, settings
            procedure = XTupleDecisionProcedure(
                matcher,
                base.model,
                base.derivation,
                classifier=base.final_classifier,
            )
            while len(memo) >= _MAX_PRUNED_PROCEDURES:
                memo.popitem(last=False)
            memo[key] = procedure
        else:
            memo.move_to_end(key)
        return procedure, floors, settings

    @property
    def reducer(self) -> PairGenerator:
        """The configured search-space reduction strategy."""
        return self._reducer

    def plan(
        self, relation: XRelation | ProbabilisticRelation | XTupleStore
    ) -> CandidatePlan:
        """The execution plan detection would run (after preparation)."""
        relation = self._prepared_relation(relation)
        return plan_candidates(self._reducer, relation)

    def _prepared_relation(
        self, relation: XRelation | ProbabilisticRelation | XTupleStore
    ) -> XRelation | XTupleStore:
        """Step A for one relation (of ``detect`` and ``session``) or
        one autonomous source (of ``detect_between``)."""
        if isinstance(relation, ProbabilisticRelation):
            relation = relation.to_x_relation()
        if self._preparation is not None:
            if not isinstance(relation, XRelation):
                # Preparation hooks rewrite whole relations; rewriting an
                # out-of-core store in place would defeat its read-only
                # semantics.  Prepare, then spill.
                raise TypeError(
                    "preparation hooks require in-memory relations; "
                    "materialize each store, prepare, and re-spill "
                    "(store.materialize() → prepare → XRelation.spill)"
                )
            relation = self._preparation(relation)
        return relation

    def detect(
        self,
        relation: XRelation | ProbabilisticRelation | XTupleStore,
        *,
        chunk_size: int | None = None,
        keep_derivations: bool = True,
        keep_compared_pairs: bool = True,
        stream: bool = False,
        min_similarity: float | Mapping[str, float] | str | None = None,
        kernel_backend: str | None = None,
        on_progress: ProgressObserver | None = None,
        retry: RetryPolicy | None = None,
        on_error: str = "raise",
        on_fault: FaultObserver | None = None,
        audit: str | os.PathLike | bool | None = None,
    ) -> DetectionResult | Iterator[DetectionResult]:
        """Run steps A–D over one relation and collect the decisions.

        Flat probabilistic relations are embedded into the x-tuple model
        first (Section IV-A as the 1-alternative special case).  The
        relation may be any storage backend satisfying
        :class:`~repro.pdb.storage.XTupleStore` — in particular an
        out-of-core :class:`~repro.pdb.storage.ColumnarXTupleStore`
        opened via :func:`repro.pdb.io.open_store`, in which case only
        one chunk-sized working set (plus the store's tuple cache) is
        ever decoded at a time and results are identical bit for bit to
        the in-memory run.

        >>> from repro.pdb.relations import XRelation
        >>> from repro.pdb.xtuples import TupleAlternative, XTuple
        >>> from repro.matching import (AttributeMatcher,
        ...     FellegiSunterModel, ThresholdClassifier)
        >>> from repro.similarity import (FAST_LEVENSHTEIN,
        ...     UncertainValueComparator)
        >>> relation = XRelation("people", ("name", "job"), [
        ...     XTuple(t, (TupleAlternative({"name": n, "job": j}, 1.0),))
        ...     for t, n, j in [("t1", "meier", "baker"),
        ...                     ("t2", "meyer", "baker"),
        ...                     ("t3", "smith", "clerk")]])
        >>> detector = DuplicateDetector(
        ...     AttributeMatcher({
        ...         "name": UncertainValueComparator(
        ...             FAST_LEVENSHTEIN, cache=True),
        ...         "job": UncertainValueComparator(
        ...             FAST_LEVENSHTEIN, cache=True)}),
        ...     FellegiSunterModel(
        ...         {"name": 0.9, "job": 0.6}, {"name": 0.05, "job": 0.2},
        ...         ThresholdClassifier(10.0, 1.0),
        ...         agreement_threshold=0.8),
        ... )
        >>> detector.detect(relation).matches
        (('t1', 't2'),)
        >>> # Threshold pushdown: identical decisions, pruned kernels.
        >>> detector.detect(relation, min_similarity="auto").matches
        (('t1', 't2'),)

        Parameters
        ----------
        chunk_size:
            Candidate pairs decided per working-set load (default
            :data:`~repro.matching.executor.DEFAULT_CHUNK_SIZE`).
            Consecutive whole partitions are packed into tasks of at
            most this many pairs; a larger partition is decided chunk
            by chunk.  Decisions are bitwise identical at any size.
        keep_derivations:
            When ``False``, decisions are returned without their
            intermediate comparison matrices (``derivation_input`` is
            ``None``), so large runs don't retain every ``k × l`` matrix.
        keep_compared_pairs:
            When ``False``, the result's ``compared_pairs`` is empty, so
            streaming large runs never accumulates a set of every pair
            id.  Decisions are unaffected.
        stream:
            With ``True``, returns a lazy iterator of per-partition
            :class:`DetectionResult` slices instead of one collected
            result — decisions for a partition are released to the
            caller as soon as its task (at most one chunk of pairs, or
            the partition alone when it is larger) is decided, so a
            run over a huge relation never materializes all decisions.
        min_similarity:
            Threshold pushdown.  ``"auto"`` derives per-attribute
            cutoffs from the decision model's classifier structure
            (:func:`repro.matching.pushdown.derive_floors`) and runs
            attribute matching through the cutoff-banded kernels —
            provably bitwise-equal decisions at a fraction of the
            comparison cost; configurations that cannot prove a safe
            cutoff silently run exact (inspect
            :meth:`attribute_floors`).  A float applies one uniform
            floor, a mapping per-attribute floors — both are
            *assertions* by the caller that similarities below the
            floor cannot change any decision; unlike ``"auto"`` they
            are not validated against the model, but a mapping may
            name only attributes the matcher compares (else
            ``ValueError``, as for a ``bool``).  ``None`` (default)
            computes every similarity exactly.  Under pushdown the
            banded cutoff caches fill instead of the exact tables.
        kernel_backend:
            Which edit kernel scores attribute similarities:
            ``"fast"`` (``None``, the default) — Myers bit-parallel
            kernels — or ``"python"``, the reference banded DPs; both
            score one pair per call.
            The fast kernel is pinned bitwise to the reference
            (``tests/test_backends.py``), so this is purely a
            performance knob; it composes with ``min_similarity``
            (both kernels honor the cutoff band) and only affects
            backend-aware comparators such as
            :data:`~repro.similarity.FAST_LEVENSHTEIN`.  Any other
            value raises ``ValueError``.
        on_progress:
            Optional callback invoked once per completed partition with
            a :class:`~repro.matching.executor.PartitionProgress`
            event; the run's summary is available afterwards as
            :attr:`last_report`.
        retry:
            Fault-tolerance budget, a
            :class:`~repro.matching.executor.RetryPolicy`: failed or
            timed-out attempts are retried up to ``max_attempts``
            (with exponential ``backoff``), each attempt bounded by
            ``timeout`` seconds, checked at every chunk boundary.  The
            default
            policy (one attempt, no deadline) together with
            ``on_error="raise"`` engages no recovery: an attempt's
            exception propagates unchanged, with its own type, and
            nothing is retried or recorded.
        on_error:
            What happens to a work unit that exhausts the retry
            budget: ``"raise"`` (default) aborts the run with a
            :class:`~repro.matching.executor.PartitionFailure`;
            ``"degrade"`` re-executes the unit once more without fault
            hook or deadline — work units are pure, so a degraded
            run's decisions stay bitwise identical, merely slower;
            ``"skip"`` drops the unit's partitions and records one
            :class:`~repro.matching.executor.PartitionFailure` per
            partition in ``last_report.failures`` (partial results for
            consolidation workloads that prefer serving healthy
            partitions).  Every recovery is counted in
            :attr:`last_report` — silent degradation is impossible.
        on_fault:
            Optional callback invoked on every retry, degradation and
            terminal failure with a
            :class:`~repro.matching.executor.FaultEvent`.
        audit:
            Build an :class:`~repro.audit.AuditManifest` for the run —
            calibration fingerprints, resolved thresholds/floors, plan
            fingerprints and per-partition η counts, canonicalized so
            any execution variant of the same inputs (chunk size,
            spilled storage, kernel) fingerprints byte-identically.
            ``True`` records it as :attr:`last_manifest` only; a path
            additionally writes the manifest JSON (with a tamper-
            evident self-digest) to that file.  Requires a collected
            run (not ``stream=True``).
        """
        return self._detect_prepared(
            self._prepared_relation(relation),
            None,
            self._resolve_run(
                min_similarity,
                kernel_backend=kernel_backend,
                chunk_size=chunk_size,
                keep_derivations=keep_derivations,
                keep_compared_pairs=keep_compared_pairs,
                retry=retry,
                on_error=on_error,
            ),
            stream=stream,
            on_progress=on_progress,
            on_fault=on_fault,
            audit=audit,
        )

    def session(
        self,
        relation: XRelation | ProbabilisticRelation | XTupleStore,
        *,
        journal=None,
        within_sources: bool = True,
        on_progress: ProgressObserver | None = None,
        on_fault: FaultObserver | None = None,
        audit: str | os.PathLike | bool | None = None,
        **options,
    ):
        """Open an incremental detection session over *relation*.

        The session (:class:`~repro.service.DetectionSession`) overlays
        the prepared relation with a mutable delta view, keeps plan
        fingerprints, per-partition decisions and similarity caches
        alive between calls, and re-executes only the partitions each
        ingested batch touches.  The options are resolved exactly as
        :meth:`detect` resolves them (floors, kernel, execution
        settings), so the session's first result is bitwise-identical
        to a one-shot ``detect`` over the same input, and every refresh
        stays bitwise-identical to a from-scratch detection over the
        base with all deltas applied.

        ``journal`` names a session directory (or an opened
        :class:`~repro.pdb.storage.SessionJournal`) for durable
        sessions: ingests append to the journal, and a restart replays
        it and restores the snapshot's fingerprint index and decisions.
        Remaining keyword options are those of :meth:`detect`
        (``chunk_size``, ``keep_derivations``, ``retry`` …) except
        ``stream``.
        """
        from repro.service.session import DetectionSession

        procedure, floors, settings = self._resolve_run(**options)
        return DetectionSession(
            procedure,
            self._reducer,
            self._prepared_relation(relation),
            settings,
            journal=journal,
            within_sources=within_sources,
            on_progress=on_progress,
            on_fault=on_fault,
            audit=audit,
            floors=floors,
        )

    def detect_between(
        self,
        left: XRelation | ProbabilisticRelation | XTupleStore,
        right: XRelation | ProbabilisticRelation | XTupleStore,
        *more: XRelation | ProbabilisticRelation | XTupleStore,
        within_sources: bool = True,
        stream: bool = False,
        on_progress: ProgressObserver | None = None,
        on_fault: FaultObserver | None = None,
        audit: str | os.PathLike | bool | None = None,
        **options,
    ) -> DetectionResult | Iterator[DetectionResult]:
        """Inter-source detection without materializing the union.

        The paper's scenario — consolidating autonomous probabilistic
        sources (ℛ1/ℛ2 or ℛ3/ℛ4) — is planned over a
        :class:`~repro.pdb.storage.MultiSourceStore` *view* of the
        sources: iteration order equals the union's, so decisions are
        bitwise identical to ``detect(left.union(right))``, but no
        combined relation is ever built — two (or more) out-of-core
        :class:`~repro.pdb.storage.ColumnarXTupleStore` sources are
        consolidated through multi-store working-set fetches.  Every
        partition of the plan is tagged with the sources it touches.

        With ``within_sources=False`` only *cross-source* pairs are
        decided (which records of one source duplicate records of
        another): partitions whose key range exists in a single source
        are pruned from the plan without touching their tuples, and the
        remaining decisions equal the union run's decisions filtered to
        cross-source pairs, in the same order.

        A configured ``preparation`` hook is applied to *each source
        separately, before planning* — per-source standardization —
        and requires in-memory sources (materialize stores first).
        Remaining keyword options are those of :meth:`detect`, resolved
        the same way.
        """
        run = self._resolve_run(**options)
        sources = [
            self._prepared_relation(s) for s in (left, right, *more)
        ]
        view = combine_sources(sources)
        if not within_sources:
            # Zone-map pruning (Section V's search-space reduction across
            # sources): statistics prove some sources share no block key
            # with any other, so those sources are dropped *before*
            # planning — their tuples are never scanned or fetched.  The
            # surviving cross plan is identical: pruned sources could
            # only have formed single-source partitions, which the cross
            # filter removes anyway.
            view, _pruned = prune_disjoint_sources(view, self._reducer)
        plan = plan_sources(self._reducer, view)
        if not within_sources:
            plan = cross_source_plan(plan, view)
        return self._detect_prepared(
            view,
            plan,
            run,
            stream=stream,
            on_progress=on_progress,
            on_fault=on_fault,
            audit=audit,
        )

    # ------------------------------------------------------------------
    # Execution (delegated to repro.matching.executor)
    # ------------------------------------------------------------------

    def _detect_prepared(
        self,
        relation: XRelation | XTupleStore,
        plan: CandidatePlan | None,
        run: tuple[
            XTupleDecisionProcedure,
            SimilarityFloors | None,
            ExecutionSettings,
        ],
        *,
        stream: bool,
        on_progress: ProgressObserver | None,
        on_fault: FaultObserver | None,
        audit: str | os.PathLike | bool | None,
    ) -> DetectionResult | Iterator[DetectionResult]:
        procedure, floors, settings = run
        if audit and stream:
            raise ValueError(
                "audit manifests require a collected run (stream=False)"
            )
        engine = ExecutionEngine(
            procedure,
            settings,
            observer=on_progress,
            fault_observer=on_fault,
        )
        self.last_report = engine.report
        if plan is None:
            plan = plan_candidates(self._reducer, relation)
        slices = engine.execute(relation, plan)
        if stream:
            return slices
        decisions: list[XTupleDecision] = []
        compared: set[tuple[str, str]] = set()
        partition_counts: dict[str, list[int]] = {}
        for piece in slices:
            decisions.extend(piece.decisions)
            if settings.keep_compared_pairs:
                compared.update(piece.compared_pairs)
            if audit:
                partition_counts[piece.partition_label] = status_counts(
                    piece.decisions
                )
        if audit:
            self.last_manifest = build_manifest(
                procedure=procedure,
                plan_fingerprints=plan_fingerprints(relation, plan),
                partition_counts=partition_counts,
                floors=floors,
                failures=tuple(
                    failure.partition for failure in engine.report.failures
                ),
                environment=run_environment(settings, relation, procedure),
            )
            if not isinstance(audit, bool):
                self.last_manifest.write(audit)
        return DetectionResult(
            decisions=tuple(decisions),
            compared_pairs=frozenset(compared),
            relation_size=len(relation),
        )

    def __repr__(self) -> str:
        return (
            f"DuplicateDetector({self._procedure!r}, "
            f"reducer={self._reducer!r})"
        )
