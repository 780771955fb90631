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
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter

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


#: Fewest alternative-pair cells a batch needs before
#: :meth:`XTupleDecisionProcedure.decide_batch` runs it as arrays.  The
#: array path pays a fixed few hundred microseconds per batch (numpy
#: calls, encoding) that per-pair :meth:`~XTupleDecisionProcedure.decide`
#: calls only overtake at a few dozen cells — warm caches, the
#: incremental session's case, put the crossover highest; smaller
#: batches take the per-pair loop.  The ``test_bench_decide_crossover``
#: rows of ``benchmarks/test_bench_kernels.py`` measure both sides.
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

    def with_floors(
        self, floors: SimilarityFloors
    ) -> "XTupleDecisionProcedure":
        """A clone whose attribute matching prunes below *floors*.

        Model, derivation and final classifier are shared; only the
        matcher is replaced by its floor-configured clone (see
        :meth:`AttributeMatcher.with_floors`).  Returns ``self`` when
        the floors change nothing.
        """
        matcher = self._matcher.with_floors(floors)
        if matcher is self._matcher:
            return self
        return XTupleDecisionProcedure(
            matcher,
            self._model,
            self._derivation,
            classifier=self._final_classifier,
        )

    def with_backend(self, backend: str) -> "XTupleDecisionProcedure":
        """A clone whose edit comparators run on kernel *backend*
        (``"fast"`` or ``"python"``).

        Model, derivation and final classifier are shared; only the
        matcher is replaced by its kernel-configured clone (see
        :meth:`AttributeMatcher.with_backend`).  The fast kernel is
        pinned bitwise to the reference DPs, so decisions are
        identical.  Returns ``self`` when nothing changes (no
        backend-aware comparators, or the kernel is already active).
        """
        matcher = self._matcher.with_backend(backend)
        if matcher is self._matcher:
            return self
        return XTupleDecisionProcedure(
            matcher,
            self._model,
            self._derivation,
            classifier=self._final_classifier,
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
    ) -> list[XTupleDecision]:
        """Figure 6 for many x-tuple pairs at once, as arrays.

        Returns ``[self.decide(l, r, keep_derivations=…) for l, r in
        zip(lefts, rights)]``, bitwise, with each step run once over
        all alternative-pair cells of the batch:
        :meth:`AttributeMatcher.compare_batch` (Eq. 5 per attribute),
        the model's φ (:func:`model_similarities`), the step-1.2
        classification when ϑ is decision-based, ϑ
        (:func:`derive_all`, Eq. 6) and the final classification.
        Only the result records are built per pair, and the
        :class:`DerivationInput` ones only with *keep_derivations*.
        Batches under :data:`BATCH_MIN_CELLS` cells, where the arrays'
        fixed costs outweigh their gain, are decided pair by pair.

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
        cells = _CellBatch(lefts, rights)
        if cells.attributes is None:
            # Alternatives of differing schemas: no common vector layout.
            return self._decide_each(lefts, rights, keep_derivations)
        reference = self.decide(
            lefts[0], rights[0], keep_derivations=keep_derivations
        )
        vectors = self._matcher.compare_batch(
            cells.attributes, cells.rows, cells.lefts, cells.rights
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
            list(map(_TUPLE_ID, lefts)),
            list(map(_TUPLE_ID, rights)),
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


class _CellBatch:
    """The alternative-pair cells of a batch of x-tuple pairs.

    Each distinct x-tuple's alternatives become :attr:`rows` once; pair
    ``p``'s ``k × l`` matrix becomes the cells ``offsets[p]:offsets[p +
    1]`` in row-major order, cell ``c`` pairing ``rows[lefts[c]]`` with
    ``rows[rights[c]]``, with its Eq. 6/8/9 conditional weight computed
    as :class:`ComparisonMatrix` does.  :attr:`attributes` is the rows'
    shared schema, or ``None`` when they differ.
    """

    __slots__ = (
        "rows", "lefts", "rights", "weights", "offsets", "shapes", "attributes",
    )

    def __init__(self, lefts: Sequence[XTuple], rights: Sequence[XTuple]):
        xtuples = dict(zip(map(id, lefts), lefts))
        xtuples.update(zip(map(id, rights), rights))
        position = {key: index for index, key in enumerate(xtuples)}
        rows: list = []
        first_row: list[int] = []
        sizes: list[int] = []
        conditional: list[float] = []
        for xtuple in xtuples.values():
            alternatives = xtuple.alternatives
            probabilities = tuple(alt.probability for alt in alternatives)
            total = sum(probabilities)
            first_row.append(len(rows))
            sizes.append(len(alternatives))
            rows.extend(alternatives)
            conditional.extend(p / total for p in probabilities)
        locate = position.__getitem__
        left_at = np.fromiter(
            map(locate, map(id, lefts)), dtype=np.int64, count=len(lefts)
        )
        right_at = np.fromiter(
            map(locate, map(id, rights)), dtype=np.int64, count=len(rights)
        )
        first = np.array(first_row, dtype=np.int64)
        size = np.array(sizes, dtype=np.int64)
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
        weight = np.array(conditional, dtype=np.float64)
        self.weights = weight[self.lefts] * weight[self.rights]
        self.rows = rows
        self.offsets = offsets
        self.shapes = list(zip(left_size.tolist(), right_size.tolist()))
        schemas = {row.attributes for row in rows}
        schema = schemas.pop()
        self.attributes = schema if schema and not schemas else None
