"""Deterministic fault injection for the execution and storage layers.

Chaos testing is only useful when it is *reproducible*: a fault that
appears once in a thousand runs proves nothing about recovery.  This
module injects the production failure modes the fault-tolerance layer
defends against — a raising comparison, a hung one, bit rot, a crash
mid-write — at seed-chosen but fully deterministic targets:

* **content-addressed attempt hooks** — the executor consults an
  installed hook once per attempt of every task with the attempt
  number and the task's candidate pairs
  (:func:`repro.matching.executor.faults.set_fault_hook`).  Hooks
  built here fire when a chosen *target pair* is part of the task, so
  the same pair misbehaves wherever packing happens to place it — in a
  task of many partitions or replayed alone, at any chunk size.
  ``attempts=(1,)`` injectors fail the first attempt and let the retry
  succeed;
* **on-disk byte flips** — :meth:`FaultInjector.flip_byte` corrupts a
  seed-chosen byte of a seed-chosen file (structure or column) of a
  seed-chosen segment family of a spilled store, for exercising
  checksum verification and quarantine;
* **cut session writes** — :func:`cut_write` crashes a durable session
  at one write boundary of its directory (journal append, snapshot
  delta append, compaction's base replace or delta truncate), leaving
  nothing or a torn half of what the write would have put on disk
  (install it as the session journal's
  :attr:`~repro.pdb.storage.SessionJournal.write_hook`).

The degraded re-execution deliberately bypasses the attempt hook —
recovery must not re-trigger the fault it recovers from.

Example — the first attempt of whatever task carries ``pair`` crashes,
the retry completes the run bitwise-identically::

    injector = FaultInjector(seed=7)
    pair = injector.pick_pair(plan)
    with installed(crash_on(pair)):
        result = detector.detect(
            relation, retry=RetryPolicy(max_attempts=2), on_error="raise",
        )
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from repro.matching.executor.faults import set_fault_hook

#: Hook signature the executor consults: ``(attempt, pairs) -> None``;
#: raising (or not returning) is the injection.
FaultHook = Callable[[int, Sequence[tuple[str, str]]], None]


#: Hook signature a session journal consults before each write
#: (:attr:`~repro.pdb.storage.SessionJournal.write_hook`):
#: ``(boundary, path, data) -> None``; raising is the injection.
WriteHook = Callable[[str, str, bytes], None]

#: The write boundaries of a session directory, in the order one
#: compacting save reaches them after its ingest's journal append.
WRITE_BOUNDARIES = ("journal", "delta", "replace", "truncate")


class InjectedWorkerCrash(RuntimeError):
    """The exception :func:`crash_on` injectors raise in an attempt."""


class InjectedWriteCrash(RuntimeError):
    """The exception :func:`cut_write` injectors raise at a write."""


@contextmanager
def installed(hook: FaultHook) -> Iterator[FaultHook]:
    """Install *hook* for the duration of a ``with`` block.

    Always cleared on exit, even when the run raises.
    """
    set_fault_hook(hook)
    try:
        yield hook
    finally:
        set_fault_hook(None)


def _targets(
    pair: tuple[str, str], attempts: Sequence[int]
) -> Callable[[int, Sequence[tuple[str, str]]], bool]:
    target = tuple(pair)
    wanted = frozenset(attempts)

    def matches(attempt: int, pairs: Sequence[tuple[str, str]]) -> bool:
        return attempt in wanted and any(
            tuple(candidate) == target for candidate in pairs
        )

    return matches


def crash_on(
    pair: tuple[str, str], *, attempts: Sequence[int] = (1,)
) -> FaultHook:
    """Raise :class:`InjectedWorkerCrash` in the attempt carrying *pair*.

    Models a work unit whose execution raises (poison input, transient
    resource failure): the exception surfaces as a
    :class:`~repro.matching.executor.WorkerCrash` — detected
    immediately, no timeout needed.
    """
    matches = _targets(pair, attempts)

    def hook(attempt: int, pairs: Sequence[tuple[str, str]]) -> None:
        if matches(attempt, pairs):
            raise InjectedWorkerCrash(
                f"injected crash for pair {tuple(pair)!r} "
                f"on attempt {attempt}"
            )

    return hook


def stall_on(
    pair: tuple[str, str],
    seconds: float,
    *,
    attempts: Sequence[int] = (1,),
) -> FaultHook:
    """Stall the attempt carrying *pair* for *seconds*.

    Models a hung comparison (pathological input, stuck I/O): the
    attempt overruns its deadline, the chunk loop notices at its first
    chunk boundary, and the attempt is resolved as a
    :class:`~repro.matching.executor.WorkerTimeout`.  Keep *seconds*
    above the policy's ``timeout`` but small — the run waits them out.
    """
    matches = _targets(pair, attempts)

    def hook(attempt: int, pairs: Sequence[tuple[str, str]]) -> None:
        if matches(attempt, pairs):
            time.sleep(seconds)

    return hook


def cut_write(boundary: str, *, torn: bool = False) -> WriteHook:
    """Crash the session write reaching *boundary*.

    Without *torn* the write never starts (a crash between records).
    With it, the cut lands mid-write: an append leaves the first half
    of its record at the end of the log, a base replace leaves half the
    new base in a stray temporary file beside it, a truncate leaves the
    delta log cut to half its length.  Install it as a journal's
    ``write_hook``.
    """
    if boundary not in WRITE_BOUNDARIES:
        raise ValueError(f"unknown write boundary {boundary!r}")

    def hook(at: str, path: str, data: bytes) -> None:
        if at != boundary:
            return
        if torn:
            if boundary in ("journal", "delta"):
                with open(path, "ab") as handle:
                    handle.write(data[: len(data) // 2])
            elif boundary == "replace":
                with open(f"{path}.cut.tmp", "wb") as handle:
                    handle.write(data[: len(data) // 2])
            elif os.path.exists(path):
                os.truncate(path, os.path.getsize(path) // 2)
        raise InjectedWriteCrash(
            f"injected {'torn ' if torn else ''}cut at the {boundary} "
            f"write of {os.path.basename(path)}"
        )

    return hook


def compose(*hooks: FaultHook) -> FaultHook:
    """One hook running several injectors in order (first raise wins)."""

    def hook(attempt: int, pairs: Sequence[tuple[str, str]]) -> None:
        for inner in hooks:
            inner(attempt, pairs)

    return hook


@dataclass(frozen=True)
class FlippedByte:
    """Receipt of one on-disk byte flip (enough to undo it)."""

    #: Absolute path of the file that was corrupted.
    path: str
    #: Byte offset that was flipped.
    offset: int
    #: The byte's original value.
    original: int
    #: The value written in its place (``original ^ 0xFF``).
    flipped: int

    def restore(self) -> None:
        """Write the original byte back (undo the corruption)."""
        with open(self.path, "r+b") as handle:
            handle.seek(self.offset)
            handle.write(bytes([self.original]))


class FaultInjector:
    """Seeded chooser of *where* to inject — same seed, same faults.

    All randomness flows through one ``random.Random(seed)``: given the
    same plan/store and the same call sequence, every chosen partition,
    pair and byte is identical across runs — the property the chaos CI
    matrix relies on.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    # ------------------------------------------------------------------
    # Target selection
    # ------------------------------------------------------------------

    def pick_partition(self, plan):
        """A seed-chosen non-empty partition of *plan*."""
        candidates = [
            partition for partition in plan.partitions if partition.pairs
        ]
        if not candidates:
            raise ValueError("plan has no partitions with pairs")
        return self._rng.choice(candidates)

    def pick_pair(self, plan) -> tuple[str, str]:
        """A seed-chosen candidate pair of a seed-chosen partition."""
        partition = self.pick_partition(plan)
        return tuple(self._rng.choice(partition.pairs))

    # ------------------------------------------------------------------
    # Executor faults (content-addressed attempt hooks)
    # ------------------------------------------------------------------

    def partition_crash(
        self, plan, *, attempts: Sequence[int] = (1,)
    ) -> FaultHook:
        """Crash the attempt carrying a seed-chosen pair."""
        return crash_on(self.pick_pair(plan), attempts=attempts)

    def partition_stall(
        self, plan, seconds: float, *, attempts: Sequence[int] = (1,)
    ) -> FaultHook:
        """Stall the attempt carrying a seed-chosen pair."""
        return stall_on(self.pick_pair(plan), seconds, attempts=attempts)

    # ------------------------------------------------------------------
    # Storage faults (on-disk corruption)
    # ------------------------------------------------------------------

    def flip_byte(
        self, store, *, segment: int | None = None
    ) -> FlippedByte:
        """Flip one seed-chosen byte of one file of a spilled store.

        *store* is a :class:`~repro.pdb.storage.ColumnarXTupleStore`
        (any object whose ``_segment_files`` lists one file family per
        segment: the structure file, then one file per column);
        *segment* pins the segment index, otherwise it is seed-chosen.
        The file within the family and the byte within the file are
        seed-chosen.  Returns a :class:`FlippedByte` receipt that can
        :meth:`~FlippedByte.restore` the original byte.
        """
        families = list(store._segment_files)
        if not families:
            raise ValueError("store has no segments to corrupt")
        if segment is None:
            segment = self._rng.randrange(len(families))
        path = self._rng.choice(families[segment])
        size = os.path.getsize(path)
        if size == 0:
            raise ValueError(f"segment {path!r} is empty")
        offset = self._rng.randrange(size)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            original = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([original ^ 0xFF]))
        return FlippedByte(
            path=path,
            offset=offset,
            original=original,
            flipped=original ^ 0xFF,
        )


__all__ = [
    "FaultHook",
    "FaultInjector",
    "FlippedByte",
    "InjectedWorkerCrash",
    "InjectedWriteCrash",
    "WRITE_BOUNDARIES",
    "WriteHook",
    "compose",
    "crash_on",
    "cut_write",
    "installed",
    "stall_on",
]
