"""The two adapted decision procedures of Figure 6.

:class:`XTupleDecisionProcedure` executes, for an x-tuple pair:

1. attribute value matching → comparison matrix (Section IV-B),
2. per-alternative-pair combination φ(c⃗ᵢⱼ) (step 1.1) and — for
   decision-based derivations — per-pair classification (step 1.2),
3. the derivation function ϑ (step 2),
4. final classification of the x-tuple pair into {M, P, U} (step 3).

The same engine covers the flat model of Section IV-A: a probabilistic
relation is embedded as 1-alternative x-tuples, the matrix degenerates to
1×1, ϑ is the identity on a single cell, and the procedure reduces
exactly to Figure 3 — tests assert this equivalence.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from itertools import chain, compress, count, repeat
from operator import attrgetter, is_

import numpy as np

from repro.matching.comparison import (
    AttributeMatcher,
    ComparisonMatrix,
)
from repro.matching.decision.base import (
    Decision,
    DecisionModel,
    MatchStatus,
    ThresholdClassifier,
    model_similarities,
)
from repro.matching.derivation import (
    DerivationBatch,
    DerivationFunction,
    DerivationInput,
    ExpectedSimilarity,
    derive_all,
)
from repro.matching.pushdown import SimilarityFloors, derive_floors
from repro.pdb.tuples import ProbabilisticTuple
from repro.pdb.xtuples import XTuple
from repro.similarity.kernels import AppendArray
from repro.similarity.uncertain import CodedValues


#: Fewest alternative-pair cells a batch needs before
#: :meth:`XTupleDecisionProcedure.decide_batch` runs it as arrays.  On
#: warm caches, the incremental session's case, a batch costs about
#: 0.4 ms fixed (numpy calls, its reference decide, coding the tuples
#: it meets) plus ~3 µs per flat pair, against ~16 µs per per-pair
#: :meth:`~XTupleDecisionProcedure.decide` call, so the two cross at
#: about 30 cells (the ``test_bench_decide_crossover`` rows of
#: ``benchmarks/test_bench_kernels.py``, 2 CPUs); smaller batches take
#: the per-pair loop.
BATCH_MIN_CELLS = 48


@dataclass(frozen=True, slots=True)
class XTupleDecision:
    """Full record of one x-tuple pair decision.

    Attributes
    ----------
    left_id / right_id:
        Tuple identifiers.
    decision:
        The final classification (status + x-tuple similarity).
    derivation_input:
        The intermediate matrices, kept for explainability: per-pair
        similarities, per-pair statuses (decision-based only) and the
        conditional weights.  ``None`` when the pipeline ran with
        ``keep_derivations=False`` to bound memory on large runs.
    """

    left_id: str
    right_id: str
    decision: Decision
    derivation_input: DerivationInput | None

    @property
    def status(self) -> MatchStatus:
        """The matching value η of the x-tuple pair."""
        return self.decision.status

    @property
    def similarity(self) -> float:
        """The derived similarity sim(t1, t2)."""
        return self.decision.similarity


class XTupleDecisionProcedure:
    """Figure 6, both variants, behind one object.

    Parameters
    ----------
    matcher:
        Attribute matcher producing comparison matrices.
    model:
        The per-alternative decision model.  Its combination function is
        step 1.1; for decision-based derivations its classifier also runs
        step 1.2.
    derivation:
        The ϑ function (step 2).  Its ``requires_statuses`` flag selects
        between the similarity-based (left) and decision-based (right)
        variants of Figure 6.
    classifier:
        Final classifier for step 3.  Defaults to the model's classifier —
        appropriate when ϑ preserves the similarity scale (e.g. expected
        similarity of normalized degrees, or matching weights classified
        by the same R-thresholds, as in the paper's examples).
    """

    def __init__(
        self,
        matcher: AttributeMatcher,
        model: DecisionModel,
        derivation: DerivationFunction | None = None,
        *,
        classifier: ThresholdClassifier | None = None,
    ) -> None:
        self._matcher = matcher
        self._model = model
        self._derivation = (
            derivation if derivation is not None else ExpectedSimilarity()
        )
        self._final_classifier = (
            classifier if classifier is not None else model.classifier
        )

    @property
    def derivation(self) -> DerivationFunction:
        """The configured ϑ."""
        return self._derivation

    @property
    def matcher(self) -> AttributeMatcher:
        """The attribute matcher (exposed for cache inspection)."""
        return self._matcher

    @property
    def model(self) -> DecisionModel:
        """The per-alternative decision model (steps 1.1/1.2)."""
        return self._model

    @property
    def final_classifier(self) -> ThresholdClassifier:
        """The step-3 classifier deciding the derived similarity."""
        return self._final_classifier

    # ------------------------------------------------------------------
    # Threshold pushdown
    # ------------------------------------------------------------------

    def attribute_floors(self) -> SimilarityFloors | None:
        """The safe pushdown floors of this configuration, if any.

        Delegates to :func:`repro.matching.pushdown.derive_floors` with
        this procedure's model, ϑ and final classifier; ``None`` means
        pruning must stay off for this configuration.
        """
        return derive_floors(
            self._model, self._derivation, self._final_classifier
        )

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------

    def comparison_matrix(
        self, left: XTuple, right: XTuple
    ) -> ComparisonMatrix:
        """Attribute value matching for all alternative pairs."""
        return self._matcher.compare_xtuples(left, right)

    def derivation_input(
        self, matrix: ComparisonMatrix
    ) -> DerivationInput:
        """Steps 1.1 (+1.2) — similarity and status matrices plus weights.

        The conditional weights are reused from the comparison matrix
        (computed once in its constructor) instead of being re-derived
        per cell; numpy views of all matrices materialize lazily inside
        :class:`DerivationInput` the first time a vectorized derivation
        needs them.
        """
        model_similarity = self._model.similarity
        classify = (
            self._model.classifier.classify
            if self._derivation.requires_statuses
            else None
        )
        similarities: list[tuple[float, ...]] = []
        statuses: list[tuple[MatchStatus, ...]] | None = (
            [] if classify is not None else None
        )
        for vector_row in matrix.rows():
            sim_row = tuple(model_similarity(v) for v in vector_row)
            similarities.append(sim_row)
            if statuses is not None:
                statuses.append(tuple(classify(s) for s in sim_row))
        return DerivationInput(
            similarities=tuple(similarities),
            statuses=tuple(statuses) if statuses is not None else None,
            weights=matrix.weights,
        )

    def similarity(self, left: XTuple, right: XTuple) -> float:
        """sim(t1, t2) — steps 1 and 2 only."""
        matrix = self.comparison_matrix(left, right)
        return self._derivation(self.derivation_input(matrix))

    def decide(
        self,
        left: XTuple,
        right: XTuple,
        *,
        keep_derivations: bool = True,
    ) -> XTupleDecision:
        """The full Figure-6 procedure for one x-tuple pair.

        With ``keep_derivations=False`` the intermediate matrices are
        dropped from the returned record (``derivation_input`` is
        ``None``) so large batched runs don't retain every comparison
        matrix.
        """
        matrix = self.comparison_matrix(left, right)
        data = self.derivation_input(matrix)
        similarity = self._derivation(data)
        decision = self._final_classifier.decide(similarity)
        return XTupleDecision(
            left_id=left.tuple_id,
            right_id=right.tuple_id,
            decision=decision,
            derivation_input=data if keep_derivations else None,
        )

    def decide_batch(
        self,
        lefts: Sequence[XTuple],
        rights: Sequence[XTuple],
        keep_derivations: bool = True,
        view: "CodedView | None" = None,
    ) -> list[XTupleDecision]:
        """Figure 6 for many x-tuple pairs at once, as arrays.

        Returns ``[self.decide(l, r, keep_derivations=…) for l, r in
        zip(lefts, rights)]``, bitwise, with each step run once over
        all alternative-pair cells of the batch:
        :meth:`AttributeMatcher.compare_batch` (Eq. 5 per attribute),
        the model's φ (:func:`model_similarities`), the step-1.2
        classification when ϑ is decision-based, ϑ
        (:func:`derive_all`, Eq. 6) and the final classification.
        Rows, conditional weights and value codes are gathered by
        position from *view*, the run's or session's :class:`CodedView`
        (a batch decided without one builds its own), so each tuple is
        encoded once, not once per batch.  Only the result records are
        built per pair, and the :class:`DerivationInput` ones only with
        *keep_derivations*.  Batches under :data:`BATCH_MIN_CELLS`
        cells, where the arrays' fixed costs outweigh their gain, are
        decided pair by pair.

        The first pair is also decided by :meth:`decide` beforehand —
        one per-pair run per batch, checked against the batch's record
        for it, so a batch path that drifts from the single-pair
        procedure fails loudly instead of deciding differently.
        """
        if len(lefts) < BATCH_MIN_CELLS and (
            sum(
                len(left.alternatives) * len(right.alternatives)
                for left, right in zip(lefts, rights)
            )
            < BATCH_MIN_CELLS
        ):
            return self._decide_each(lefts, rights, keep_derivations)
        reference = self.decide(
            lefts[0], rights[0], keep_derivations=keep_derivations
        )
        if view is None:
            view = CodedView(self._matcher)
        left_ids = list(map(_TUPLE_ID, lefts))
        right_ids = list(map(_TUPLE_ID, rights))
        cells = _CellBatch(view, lefts, rights, left_ids, right_ids)
        if cells.attributes is None:
            # Alternatives of differing schemas: no common vector layout.
            return [
                reference,
                *self._decide_each(lefts[1:], rights[1:], keep_derivations),
            ]
        vectors = self._matcher.compare_batch(
            cells.attributes,
            view.codes(cells.attributes),
            cells.lefts,
            cells.rights,
        )
        similarities = model_similarities(
            self._model, cells.attributes, vectors
        )
        statuses = (
            self._model.classifier.classify_batch(similarities)
            if self._derivation.requires_statuses
            else None
        )
        batch = DerivationBatch(
            similarities, statuses, cells.weights, cells.offsets, cells.shapes
        )
        derived = derive_all(self._derivation, batch)
        records = _build_all(
            XTupleDecision,
            left_ids,
            right_ids,
            _build_all(
                Decision,
                self._final_classifier.classify_batch(derived),
                derived,
            ),
            (
                [batch.input(pair) for pair in range(len(batch))]
                if keep_derivations
                else [None] * len(batch)
            ),
        )
        first = records[0]
        if first != reference or repr(first.similarity) != repr(
            reference.similarity
        ):
            raise RuntimeError(
                f"batched decision of ({first.left_id}, {first.right_id}) "
                f"differs from the per-pair procedure: {first.decision} "
                f"vs {reference.decision}"
            )
        return records

    def _decide_each(self, lefts, rights, keep_derivations):
        return [
            self.decide(left, right, keep_derivations=keep_derivations)
            for left, right in zip(lefts, rights)
        ]

    # ------------------------------------------------------------------
    # Flat-tuple convenience (Section IV-A)
    # ------------------------------------------------------------------

    def decide_flat(
        self, left: ProbabilisticTuple, right: ProbabilisticTuple
    ) -> XTupleDecision:
        """Decide a flat tuple pair by embedding into the x-tuple model.

        Uncertainty stays on the attribute level (Equation 5 inside the
        matcher); the 1×1 matrix makes every ϑ act as the identity, so
        this is exactly the common decision model of Figure 3.
        """
        return self.decide(XTuple.from_flat(left), XTuple.from_flat(right))

    def __repr__(self) -> str:
        variant = (
            "decision-based"
            if self._derivation.requires_statuses
            else "similarity-based"
        )
        return (
            f"XTupleDecisionProcedure({variant}, ϑ={self._derivation!r}, "
            f"final={self._final_classifier!r})"
        )


#: An x-tuple's identifier, read in C.
_TUPLE_ID = attrgetter("tuple_id")


def _build_all(cls, *columns: Sequence) -> list:
    """``list(map(cls, *columns))`` for a frozen, slotted dataclass
    without ``__post_init__``, built in bulk.

    The objects are allocated at once and their slots filled column by
    column through the slot descriptors, so no Python frame runs per
    object, where calling *cls* runs its generated ``__init__`` (one
    frame plus one ``object.__setattr__`` per field) for each.
    """
    built = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for field, column in zip(fields(cls), columns, strict=True):
        deque(map(cls.__dict__[field.name].__set__, built, column), maxlen=0)
    return built


class CodedView:
    """The x-tuples of a run or a session, each coded once, for every
    batch to gather from by position.

    The first batch that meets a tuple id appends the tuple: its
    alternatives become rows — the tuple's row range, each row's Eq.
    6/8/9 conditional weight ``p(tⁱ)/p(t)`` and the schema its
    alternatives share — and, per attribute, each row's plain element
    code and Eq. 5 value code from the attribute's comparator
    (:meth:`~repro.similarity.uncertain.UncertainValueComparator.encode`).
    A tuple met again, even as a freshly decoded object, is found by
    its id, so each (tuple, alternative, attribute) is encoded once
    however many batches the tuple falls in.  The view keeps codes
    only, never the tuples, so an id whose content changes must be
    :meth:`forget`-ten; the next batch that meets it appends the new
    content.  When a comparator's registry is replaced (it filled up),
    every code is stale: the view starts over, and the batches that
    follow re-encode their tuples against the new one.

    :meth:`ExecutionEngine.execute
    <repro.matching.executor.ExecutionEngine.execute>` makes one per
    run (a ``detect`` or a ``detect_between``) unless handed one; a
    :class:`~repro.service.DetectionSession` hands every refresh the
    one it keeps for its lifetime, forgetting each id an ingest
    upserts or deletes.  A batch decided without one builds its own.
    """

    __slots__ = (
        "_matcher", "_positions", "_first", "_sizes", "_schema",
        "_weights", "_schemas", "_columns",
    )

    def __init__(self, matcher: AttributeMatcher) -> None:
        self._matcher = matcher
        self._clear()

    def _clear(self) -> None:
        self._positions: dict[str, int] = {}
        self._first = AppendArray(np.int64)
        self._sizes = AppendArray(np.int64)
        #: Per position, the index of its alternatives' shared schema
        #: in :attr:`_schemas`, or -1 when they differ (or have none).
        self._schema = AppendArray(np.int64)
        self._weights = AppendArray(np.float64)
        self._schemas: dict[tuple[str, ...], int] = {}
        self._columns: dict[str, _Column] = {}

    def forget(self, tuple_ids: Iterable[str]) -> None:
        """Drop the codes of *tuple_ids* (ids the view never met are
        ignored).  Their rows stay behind, unreachable, until dead
        tuples outnumber live ones; then the view starts over, which
        keeps it within about twice the live tuples' codes."""
        positions = self._positions
        for tuple_id in tuple_ids:
            positions.pop(tuple_id, None)
        if len(self._first) - len(positions) > len(positions):
            self._clear()

    def locate(
        self,
        lefts: Sequence[XTuple],
        rights: Sequence[XTuple],
        left_ids: list[str],
        right_ids: list[str],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the pairs' tuples, appending those the view
        has not met (after starting over if a registry was replaced)."""
        for column in self._columns.values():
            if column.registry is not column.current_registry():
                self._clear()
                break
        positions = self._positions
        left_at = list(map(positions.get, left_ids))
        right_at = list(map(positions.get, right_ids))
        if None in left_at or None in right_at:
            fresh = dict(
                compress(zip(left_ids, lefts), map(is_, left_at, repeat(None)))
            )
            fresh.update(
                compress(
                    zip(right_ids, rights), map(is_, right_at, repeat(None))
                )
            )
            self._append(fresh)
            left_at = map(positions.__getitem__, left_ids)
            right_at = map(positions.__getitem__, right_ids)
        return (
            np.fromiter(left_at, dtype=np.int64, count=len(left_ids)),
            np.fromiter(right_at, dtype=np.int64, count=len(right_ids)),
        )

    def _append(self, fresh: dict[str, XTuple]) -> None:
        """Append the tuples of *fresh* (by id), all or none of them."""
        base = row = len(self._weights)
        first: list[int] = []
        sizes: list[int] = []
        schema: list[int] = []
        weights: list[float] = []
        schemas = dict(self._schemas)
        #: Per attribute, the new rows holding it and their values.
        held: dict[str, tuple[list[int], list]] = {}
        for xtuple in fresh.values():
            alternatives = xtuple.alternatives
            probabilities = tuple(alt.probability for alt in alternatives)
            total = sum(probabilities)
            first.append(row)
            sizes.append(len(alternatives))
            weights.extend(p / total for p in probabilities)
            shapes = {alt.attributes for alt in alternatives}
            shape = shapes.pop()
            if shape and not shapes:
                schema.append(schemas.setdefault(shape, len(schemas)))
                for attribute in shape:
                    rows, values = held.setdefault(attribute, ([], []))
                    start = row - base
                    rows.extend(range(start, start + len(alternatives)))
                    values.extend(alt.value(attribute) for alt in alternatives)
            else:
                schema.append(-1)
            row += len(alternatives)
        # Every column's registry is settled before anything is encoded.
        columns = {
            attribute: self._columns.get(attribute)
            or _Column(self._matcher, attribute, base)
            for attribute in chain(self._columns, held)
        }
        codes = {
            attribute: column.encode(
                *held.get(attribute, ((), ())), row - base
            )
            for attribute, column in columns.items()
        }
        # Numbered after every position appended so far: a forgotten
        # tuple's position stays taken by its rows.
        self._positions.update(zip(fresh, count(len(self._first))))
        self._first.extend(first)
        self._sizes.extend(sizes)
        self._schema.extend(schema)
        self._weights.extend(weights)
        self._schemas = schemas
        for attribute, column in columns.items():
            column.extend(*codes[attribute])
            self._columns[attribute] = column

    def codes(self, attributes: tuple[str, ...]) -> list[CodedValues]:
        """Every row's codes, per attribute of *attributes*."""
        coded = []
        for attribute in attributes:
            column = self._columns[attribute]
            if column.comparator is None:
                self._matcher.comparator_for(attribute)  # raises KeyError
            coded.append(column.coded())
        return coded


class _Column:
    """One attribute's codes of every row of a :class:`CodedView`
    (:data:`_ABSENT` on rows of tuples without the attribute)."""

    __slots__ = ("comparator", "registry", "plain", "values")

    def __init__(self, matcher: AttributeMatcher, attribute: str, rows: int):
        try:
            self.comparator = matcher.comparator_for(attribute)
        except KeyError:
            # Raised when a batch needs the attribute (CodedView.codes).
            self.comparator = None
        self.registry = self.current_registry()
        self.plain = AppendArray(np.int64)
        self.values = AppendArray(np.int64)
        absent = np.full(rows, _ABSENT, dtype=np.int64)
        self.extend(absent, absent)

    def current_registry(self):
        """The registry the comparator's next batch encodes against."""
        if self.comparator is None:
            return None
        return self.comparator.batch_registry()

    def encode(self, holders: list[int], values: list, rows: int):
        """``(plain, value codes)`` of *rows* new rows, of which the
        rows *holders* hold *values*."""
        if self.comparator is None or not values:
            absent = np.full(rows, _ABSENT, dtype=np.int64)
            return absent, absent
        coded = self.comparator.encode(values)
        if len(values) == rows:
            return coded.plain, coded.values
        plain = np.full(rows, _ABSENT, dtype=np.int64)
        codes = plain.copy()
        plain[holders] = coded.plain
        codes[holders] = coded.values
        return plain, codes

    def extend(self, plain: np.ndarray, codes: np.ndarray) -> None:
        self.plain.extend(plain)
        self.values.extend(codes)

    def coded(self) -> CodedValues:
        return CodedValues(self.registry, self.plain.array, self.values.array)


#: The code of a row whose tuple lacks the attribute; no batch reads it.
_ABSENT = -3


class _CellBatch:
    """The alternative-pair cells of a batch of x-tuple pairs.

    Pair ``p``'s ``k × l`` matrix becomes the cells ``offsets[p]:offsets[p
    + 1]`` in row-major order, cell ``c`` pairing the :class:`CodedView`
    rows ``lefts[c]`` and ``rights[c]``, with its Eq. 6/8/9 conditional
    weight computed as :class:`ComparisonMatrix` does — all gathered
    from the view by the pairs' tuple positions.  :attr:`attributes` is
    the tuples' shared schema, or ``None`` when they differ.
    """

    __slots__ = (
        "lefts", "rights", "weights", "offsets", "shapes", "attributes",
    )

    def __init__(
        self,
        view: CodedView,
        lefts: Sequence[XTuple],
        rights: Sequence[XTuple],
        left_ids: list[str],
        right_ids: list[str],
    ):
        left_at, right_at = view.locate(lefts, rights, left_ids, right_ids)
        first = view._first.array
        size = view._sizes.array
        left_size = size[left_at]
        right_size = size[right_at]
        counts = left_size * right_size
        offsets = np.concatenate(([0], np.cumsum(counts)))
        if int(offsets[-1]) == len(counts):
            self.lefts = first[left_at]
            self.rights = first[right_at]
        else:
            owner = np.repeat(np.arange(len(counts)), counts)
            within = np.arange(int(offsets[-1])) - offsets[:-1][owner]
            self.lefts = first[left_at][owner] + within // right_size[owner]
            self.rights = first[right_at][owner] + within % right_size[owner]
        weight = view._weights.array
        self.weights = weight[self.lefts] * weight[self.rights]
        self.offsets = offsets
        self.shapes = list(zip(left_size.tolist(), right_size.tolist()))
        schema = view._schema.array
        schema = np.concatenate((schema[left_at], schema[right_at]))
        low = int(schema.min())
        self.attributes = (
            list(view._schemas)[low]
            if low >= 0 and low == int(schema.max())
            else None
        )
