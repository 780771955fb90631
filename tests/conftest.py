"""Shared test fixtures: the reference oracle for decision equality.

Every execution configuration — worker count, work-unit splitting,
streaming, storage layout, supervision — must decide exactly what the
seed pipeline decides.  :func:`oracle_detect` is that pipeline spelled
out with no planner, scheduler or batched fetch in between, so the
suites compare against something the engine cannot share a bug with.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
import pytest

from repro.matching.engine import XTupleDecisionProcedure
from repro.matching.executor import DetectionResult
from repro.pdb.relations import XRelation
from repro.reduction.plan import ordered_pair


def _python_kernel(procedure):
    """*procedure* with every backend-aware comparator on the reference
    ``"python"`` edit kernel (itself when it has none on another)."""
    matcher = procedure.matcher.configured(None, "python")
    if matcher is procedure.matcher:
        return procedure
    return XTupleDecisionProcedure(
        matcher,
        procedure.model,
        procedure.derivation,
        classifier=procedure.final_classifier,
    )


def oracle_detect(detector, relation, *, keep_derivations=True):
    """Decide the reducer's deduplicated ``pairs()`` stream, in order.

    Self-pairs are skipped and each unordered pair is decided once, at
    its first occurrence, with the per-pair ``decide`` of the detector's
    procedure on the reference ``"python"`` edit kernel, on tuples read
    one at a time through ``relation.get``.
    """
    decide = _python_kernel(detector.procedure).decide
    seen: set[tuple[str, str]] = set()
    decisions = []
    for left, right in detector.reducer.pairs(relation):
        if left == right:
            continue
        pair = ordered_pair(left, right)
        if pair in seen:
            continue
        seen.add(pair)
        decisions.append(
            decide(
                relation.get(pair[0]),
                relation.get(pair[1]),
                keep_derivations=keep_derivations,
            )
        )
    return DetectionResult(
        decisions=tuple(decisions),
        compared_pairs=frozenset(seen),
        relation_size=len(relation),
    )


@pytest.fixture(scope="session")
def oracle():
    """:func:`oracle_detect`, for tests and fixtures of any scope."""
    return oracle_detect


def materialize_batches(base, batches) -> XRelation:
    """The relation a session over *base* holds after ingesting
    ``(upserts, deletes)`` *batches*, built without the session.

    Base ids keep their position (a re-upserted base id returns to
    it), new ids append in arrival order; within a batch upserts apply
    before deletes.
    """
    live = {xtuple.tuple_id: xtuple for xtuple in base}
    added: dict = {}
    for upserts, deletes in batches:
        for xtuple in upserts:
            if xtuple.tuple_id in base:
                live[xtuple.tuple_id] = xtuple
            else:
                added[xtuple.tuple_id] = xtuple
        for tuple_id in deletes:
            if tuple_id in added:
                del added[tuple_id]
            else:
                del live[tuple_id]
    rows = [live[t] for t in base.tuple_ids if t in live]
    return XRelation(
        f"{base.name}+batches",
        base.schema.attributes,
        rows + list(added.values()),
    )


@pytest.fixture(scope="session")
def materialize():
    """:func:`materialize_batches`, for tests and fixtures of any scope."""
    return materialize_batches


def code_pairs(pairs):
    """*pairs* as ``(elements, lefts, rights)``, the operands of the
    code-keyed scorers and of ``SimilarityCache.lookup_codes``.

    Each distinct operand is listed once — strings by value, anything
    else by ``(type, value)``, so ``1`` and ``1.0`` stay apart — and
    each pair becomes the int64 codes of its two operands.
    """
    codes: dict = {}
    elements: list = []
    flat = []
    for operand in chain.from_iterable(pairs):
        key = operand if type(operand) is str else (type(operand), operand)
        if key not in codes:
            codes[key] = len(elements)
            elements.append(operand)
        flat.append(codes[key])
    flat = np.array(flat, dtype=np.int64)
    return elements, flat[0::2], flat[1::2]


@pytest.fixture(scope="session")
def coded():
    """:func:`code_pairs`, for tests and fixtures of any scope."""
    return code_pairs
