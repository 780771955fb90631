"""Worker-process plumbing of the execution engine.

Workers are forked (where the platform allows) with the decision
procedure, the relation handle and the run options installed once per
process by :func:`init_worker`; every dispatch then ships only pair
ids.  Storage backends are opened read-only by workers — a forked
worker maps a spilled store's segment files for itself and never
copies the relation (see
:meth:`repro.pdb.storage.columnar.ColumnarXTupleStore._map`).

:func:`decide_task` is the engine's one decide loop: in-process
attempts and worker dispatches decide their pairs through the same
code, one batched call per chunk of the task's concatenated pairs.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Sequence
from itertools import chain

from repro.matching.executor.faults import check_deadline
from repro.pdb.storage import fetch_tuples

#: Worker-process state for the multiprocessing fan-out, installed by
#: :func:`init_worker` via the fork of the parent.  Each worker gets its
#: own copy of the decision procedure — and therefore its own similarity
#: caches.  Caches the parent warmed and froze before forking arrive
#: read-only, shared copy-on-write; otherwise they grow independently
#: per worker.
_WORKER_STATE: dict[str, object] = {}


def init_worker(procedure, relation, keep_derivations, chunk_size) -> None:
    """Pool initializer: install per-process decision state."""
    _WORKER_STATE["procedure"] = procedure
    _WORKER_STATE["relation"] = relation
    _WORKER_STATE["keep_derivations"] = keep_derivations
    _WORKER_STATE["chunk_size"] = chunk_size


def fork_context():
    """The pool context: fork when available (shares pre-warmed caches)."""
    return multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )


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

    The units' pairs are decided as one concatenated sequence, one
    :func:`decide_pairs` batch per *chunk_size* pairs across unit
    boundaries, and the decisions are split back per unit — so a task
    packing many small partitions pays one batch set-up per chunk, not
    one per partition.  Each chunk loads its own working set, so
    residency stays bounded by *chunk_size* even when a plan
    degenerates to one partition spanning the whole relation.  With a
    *deadline* (an in-process attempt under a timeout) every chunk
    boundary checks it, and a lapsed attempt raises
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
#: :mod:`repro.testing.faults`).  Installed in the *parent* before the
#: pool forks, so every worker inherits it; consulted once per attempt,
#: in-process and in workers alike, with the attempt number and the
#: flattened pairs of the task — ``None`` (the production default)
#: costs nothing.
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


def decide_supervised(payload):
    """Worker entry point: decide one ``(attempt, task)`` dispatch.

    The attempt number travels with the task — retries land on
    whichever worker is free, so per-process counters cannot target
    "the second attempt", but a payload-borne attempt can — and the
    fault hook is consulted first, with the task's flattened pairs.
    """
    attempt, task = payload
    hook = _FAULT_HOOK
    if hook is not None:
        hook(attempt, [pair for _unit, pairs in task for pair in pairs])
    return decide_task(
        _WORKER_STATE["procedure"],
        _WORKER_STATE["relation"],
        task,
        _WORKER_STATE["keep_derivations"],
        _WORKER_STATE["chunk_size"],
    )


__all__ = [
    "chunk_working_set",
    "decide_pairs",
    "decide_supervised",
    "decide_task",
    "fault_hook",
    "fork_context",
    "init_worker",
    "set_fault_hook",
]
