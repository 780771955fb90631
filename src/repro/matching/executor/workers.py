"""The decide loop of the execution engine.

:func:`decide_task` decides one packed task: its partitions' pairs are
decided as one concatenated sequence, one batched call per chunk, each
chunk against its own working set.  :func:`set_fault_hook` is the seam
the deterministic fault-injection harness
(:mod:`repro.testing.faults`) installs its hooks through.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from repro.matching.executor.faults import check_deadline
from repro.pdb.storage import fetch_tuples


def chunk_working_set(relation, pairs: Sequence[tuple[str, str]]):
    """The tuples one chunk of pairs touches, loaded as one batch.

    One batched working-set load per chunk: out-of-core stores decode
    each needed tuple once instead of per pair lookup (and a
    multi-source view splits the batch per backing store), and the
    caller only ever holds this chunk's tuples (plus the store's tuple
    cache) decoded — never a whole single-partition plan's relation.
    """
    members: dict[str, None] = {}
    for left, right in pairs:
        members[left] = None
        members[right] = None
    return fetch_tuples(relation, members)


def decide_pairs(procedure, relation, pairs, keep_derivations):
    """Decide one bounded chunk of pairs against one working set.

    One :meth:`~repro.matching.engine.XTupleDecisionProcedure.decide_batch`
    call: the chunk's comparison, φ, ϑ and classification run as
    arrays over all its pairs.
    """
    working_set = chunk_working_set(relation, pairs)
    return procedure.decide_batch(
        [working_set[left] for left, _right in pairs],
        [working_set[right] for _left, right in pairs],
        keep_derivations,
    )


def decide_task(
    procedure,
    relation,
    task,
    keep_derivations: bool,
    chunk_size: int,
    deadline: float | None = None,
):
    """Decide one task of ``(unit, pairs)`` work units, chunk by chunk.

    A unit is one plan partition.  The units' pairs are decided as one
    concatenated sequence, one :func:`decide_pairs` batch per
    *chunk_size* pairs across unit boundaries, and the decisions are
    split back per unit — so a task packing many small partitions pays
    one batch set-up per chunk, not one per partition.  Each chunk loads
    its own working set, so residency stays bounded by *chunk_size* even
    when a plan degenerates to one partition spanning the whole
    relation.  With a *deadline* (an attempt under a timeout) every
    chunk boundary checks it, and a lapsed attempt raises
    :class:`~repro.matching.executor.faults.DeadlineExceeded`.
    Returns ``[(unit, decisions)]`` in task order.
    """
    pairs = list(chain.from_iterable(unit_pairs for _unit, unit_pairs in task))
    decisions = []
    for start in range(0, len(pairs), chunk_size):
        check_deadline(deadline)
        decisions.extend(
            decide_pairs(
                procedure,
                relation,
                pairs[start : start + chunk_size],
                keep_derivations,
            )
        )
    results = []
    offset = 0
    for unit, unit_pairs in task:
        end = offset + len(unit_pairs)
        results.append((unit, decisions[offset:end]))
        offset = end
    return results


#: Test seam for deterministic fault injection (see
#: :mod:`repro.testing.faults`).  Consulted once per attempt with the
#: attempt number and the flattened pairs of the task — ``None`` (the
#: production default) costs nothing.
_FAULT_HOOK = None


def set_fault_hook(hook) -> None:
    """Install (or with ``None`` clear) the fault-injection hook."""
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def fault_hook():
    """The installed fault-injection hook, or ``None``.

    Read through a function (not a ``from … import``) so callers always
    see the live module state :func:`set_fault_hook` mutates.
    """
    return _FAULT_HOOK


__all__ = [
    "chunk_working_set",
    "decide_pairs",
    "decide_task",
    "fault_hook",
    "set_fault_hook",
]
