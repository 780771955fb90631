"""Fast comparison kernels: banded edit distances and memoization.

The Figure-6 procedure multiplies attribute-matching work by ``k × l``
comparison-matrix cells per x-tuple pair, so the domain-element
comparators underneath are the hottest code in the whole pipeline.  This
module provides the performance core:

* :func:`banded_levenshtein` / :func:`banded_damerau_levenshtein` —
  drop-in replacements for the reference dynamic programs in
  :mod:`repro.similarity.edit` with two classic accelerations:

  - **length-difference pruning** — ``d(a, b) ≥ ||a| - |b||``, so a
    cutoff can be answered without touching the matrix;
  - **banded DP with early exit** — any cell ``(i, j)`` on an edit path
    costs at least ``|i - j|``, so with a cutoff ``max_distance`` only
    the diagonal band of half-width ``max_distance`` needs computing,
    and the scan stops as soon as a whole band row exceeds the cutoff.

  Both return the *exact* distance when it is ``≤ max_distance`` and the
  sentinel ``max_distance + 1`` otherwise (property tests in
  ``tests/test_kernels.py`` pin this equivalence to the reference DP).

* :class:`BandedEditComparator` — the *bandable* comparator wrapper
  behind threshold pushdown: :meth:`BandedEditComparator.with_min_similarity`
  produces a clone whose kernel runs with a true cutoff band and
  answers "below cutoff" (0.0) instead of the exact value whenever the
  similarity provably falls under the configured floor.  The decision
  layer derives safe floors from its classifier thresholds
  (:mod:`repro.matching.pushdown`) and the pipeline threads them down
  here, so the hottest comparisons stop as soon as a pair can no
  longer influence any matching decision.  Its kernel is one per-pair
  function, the banded DP here or its bit-parallel twin
  (:data:`KERNELS`).

* :class:`SimilarityCache` — memoizes a symmetric comparator on
  *unordered* pairs of domain elements.  Duplicate detection re-compares
  the same element pairs constantly (identical values recur across
  alternatives, x-tuples and candidate pairs), so hit rates are high;
  the cache turns a Jaro–Winkler or Levenshtein evaluation into one
  dict lookup.  The table is integer-coded — one int key per pair of
  element codes — so the batched decide loop probes and fills it with
  numpy and C-level maps (:meth:`SimilarityCache.lookup_codes`) and
  scores a batch's distinct misses from their codes
  (:func:`score_codes`, the one batch entry point: a comparator's
  ``batch_code_similarities`` hook — Jaro–Winkler's — else one call
  per pair, as for both edit kernels).  The
  table is a memo, never persisted: a session snapshot keeps
  decisions, which are what a refresh reuses.
  Cutoff-pruned results are *banded*:
  each cache records the similarity floor its base comparator was
  configured with (:attr:`SimilarityCache.band`), and a floor-configured
  comparator keeps its own banded cache beside the exact one, so pruned
  entries can never be served to an exact lookup (or vice versa).
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Any

import numpy as np

from repro.similarity.base import (
    Comparator,
    as_strings,
    similarity_from_distance,
)
from repro.similarity.backends.bitparallel import (
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein_similarity,
)


def banded_levenshtein(
    left: str, right: str, max_distance: int | None = None
) -> int:
    """Levenshtein distance with length pruning, banding and early exit.

    Parameters
    ----------
    left, right:
        The strings to compare.
    max_distance:
        Optional cutoff.  When given, the return value is the exact
        distance if it is ``≤ max_distance`` and ``max_distance + 1``
        (meaning "at least this much") otherwise.  ``None`` computes the
        exact distance with the plain two-row DP.
    """
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    m, n = len(left), len(right)
    if max_distance is None:
        if n == 0:
            return m
        return _levenshtein_two_row(left, right)
    if max_distance < 0:
        raise ValueError("max_distance must be non-negative")
    cap = max_distance + 1
    if m - n > max_distance:
        return cap
    if n == 0:
        return m if m <= max_distance else cap
    k = max_distance
    # Row 0: distance to the empty prefix is the column index.
    previous = [j if j <= k else cap for j in range(n + 1)]
    for i in range(1, m + 1):
        lo = max(1, i - k)
        hi = min(n, i + k)
        current = [cap] * (n + 1)
        current[0] = i if i <= k else cap
        left_char = left[i - 1]
        row_best = current[0]
        prev_row = previous
        for j in range(lo, hi + 1):
            above = prev_row[j] + 1
            left_cell = current[j - 1] + 1
            diag = prev_row[j - 1] + (0 if left_char == right[j - 1] else 1)
            best = diag if diag <= above else above
            if left_cell < best:
                best = left_cell
            if best > cap:
                best = cap
            current[j] = best
            if best < row_best:
                row_best = best
        if row_best >= cap:
            return cap
        previous = current
    distance = previous[n]
    return distance if distance <= k else cap


def _levenshtein_two_row(left: str, right: str) -> int:
    """Exact two-row Levenshtein DP (``len(left) >= len(right) > 0``)."""
    previous = list(range(len(right) + 1))
    for row, left_char in enumerate(left, start=1):
        current = [row]
        append = current.append
        diag = row - 1
        for col, right_char in enumerate(right, start=1):
            above = previous[col] + 1
            if left_char == right_char:
                best = previous[col - 1]
                if above < best:
                    best = above
            else:
                best = previous[col - 1] + 1
                if above < best:
                    best = above
            left_cell = current[col - 1] + 1
            append(left_cell if left_cell < best else best)
        previous = current
    return previous[-1]


def banded_damerau_levenshtein(
    left: str, right: str, max_distance: int | None = None
) -> int:
    """Restricted Damerau–Levenshtein (OSA) with banding and early exit.

    Same contract as :func:`banded_levenshtein`: exact when the distance
    is within ``max_distance``, the sentinel ``max_distance + 1`` beyond
    it.  The band argument carries over because every OSA edit
    (insert/delete cost 1, offset ±1; substitute/transpose cost ≥ 1,
    offset unchanged) keeps path cost ≥ ``|i - j|``.
    """
    if left == right:
        return 0
    if len(left) < len(right):
        left, right = right, left
    m, n = len(left), len(right)
    if max_distance is not None and max_distance < 0:
        raise ValueError("max_distance must be non-negative")
    if max_distance is not None and m - n > max_distance:
        return max_distance + 1
    if n == 0:
        if max_distance is None:
            return m
        return m if m <= max_distance else max_distance + 1
    k = max_distance if max_distance is not None else m + n
    cap = k + 1
    previous = [j if j <= k else cap for j in range(n + 1)]
    before_previous: list[int] | None = None
    for i in range(1, m + 1):
        lo = max(1, i - k)
        hi = min(n, i + k)
        current = [cap] * (n + 1)
        current[0] = i if i <= k else cap
        left_char = left[i - 1]
        row_best = current[0]
        for j in range(lo, hi + 1):
            right_char = right[j - 1]
            above = previous[j] + 1
            left_cell = current[j - 1] + 1
            diag = previous[j - 1] + (0 if left_char == right_char else 1)
            best = diag if diag <= above else above
            if left_cell < best:
                best = left_cell
            if (
                before_previous is not None
                and i > 1
                and j > 1
                and left_char == right[j - 2]
                and left[i - 2] == right_char
            ):
                transposed = before_previous[j - 2] + 1
                if transposed < best:
                    best = transposed
            if best > cap:
                best = cap
            current[j] = best
            if best < row_best:
                row_best = best
        if row_best >= cap:
            return cap
        before_previous = previous
        previous = current
    distance = previous[n]
    return distance if distance <= k else cap


def banded_levenshtein_similarity(
    left: Any, right: Any, *, min_similarity: float = 0.0
) -> float:
    """``1 - d/max(len)`` via the banded kernel.

    With a positive *min_similarity* the kernel may stop early: any pair
    whose similarity would fall below the floor returns 0.0, which is
    safe for threshold classifiers with ``T_λ ≥ min_similarity``.
    """
    left_str, right_str = as_strings(left, right)
    longest = max(len(left_str), len(right_str))
    if longest == 0:
        return 1.0
    # One row of slack guards the float boundary: a distance exactly on
    # the similarity floor is always computed exactly, never cut off.
    cutoff = int((1.0 - min_similarity) * longest) + 1
    distance = banded_levenshtein(left_str, right_str, cutoff)
    if distance > cutoff:
        return 0.0
    return similarity_from_distance(distance, longest)


def banded_damerau_levenshtein_similarity(
    left: Any, right: Any, *, min_similarity: float = 0.0
) -> float:
    """Damerau variant of :func:`banded_levenshtein_similarity`."""
    left_str, right_str = as_strings(left, right)
    longest = max(len(left_str), len(right_str))
    if longest == 0:
        return 1.0
    cutoff = int((1.0 - min_similarity) * longest) + 1
    distance = banded_damerau_levenshtein(left_str, right_str, cutoff)
    if distance > cutoff:
        return 0.0
    return similarity_from_distance(distance, longest)


#: The two kernels a backend-aware comparator can run: ``"python"``,
#: the banded reference DPs above (the bitwise ground truth), and
#: ``"fast"``, the Myers bit-parallel kernels (pinned bitwise to the
#: reference by ``tests/test_backends.py``).  Both score one pair per
#: call.  ``"fast"`` is the default.
KERNELS = ("fast", "python")

#: ``(kind, kernel) -> per-pair similarity function``.
_KERNEL_TABLE = {
    ("levenshtein", "python"): banded_levenshtein_similarity,
    ("damerau_levenshtein", "python"): (
        banded_damerau_levenshtein_similarity
    ),
    ("levenshtein", "fast"): bitparallel_levenshtein_similarity,
    ("damerau_levenshtein", "fast"): (
        bitparallel_damerau_levenshtein_similarity
    ),
}


def resolve_kernel(kernel: str | None) -> str:
    """The kernel a ``kernel_backend`` option selects (``None``: ``"fast"``).

    >>> resolve_kernel(None), resolve_kernel("python")
    ('fast', 'python')
    >>> resolve_kernel("numpy")
    Traceback (most recent call last):
    ...
    ValueError: unknown kernel backend 'numpy'; expected 'fast' or 'python'
    """
    if kernel is None:
        return "fast"
    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel backend {kernel!r}; expected 'fast' or 'python'"
        )
    return kernel


class BandedEditComparator:
    """A banded edit-distance comparator with a configurable similarity floor.

    Callable like any comparator (``(left, right) -> float``) and
    additionally *bandable*: :meth:`with_min_similarity` returns a clone
    whose kernel computes with a true cutoff band.  The contract is the
    pushdown contract of :func:`banded_levenshtein_similarity`:

    * results **at or above** the floor are exact, bit for bit;
    * results **below** the floor are either exact or 0.0 ("below
      cutoff") — whichever the band boundary reaches first.

    That contract is what makes decision-layer pruning safe: a
    classifier whose weakest decisive threshold is at least the floor
    (see :func:`repro.matching.pushdown.derive_floors`) cannot
    distinguish the two below-floor answers.

    >>> exact = BandedEditComparator(
    ...     "fast_levenshtein", banded_levenshtein_similarity
    ... )
    >>> pruned = exact.with_min_similarity(0.8)
    >>> exact("meier", "meyer") == pruned("meier", "meyer") == 0.8
    True
    >>> round(exact("meier", "baker"), 2)
    0.4
    >>> pruned("meier", "baker")  # below the floor: early-exit band
    0.0

    Comparators built with a *kind* are additionally **backend-aware**:
    :meth:`with_backend` switches between the two :data:`KERNELS` while
    keeping name, floor and — because ``"fast"`` is pinned bitwise to
    the reference DPs — results unchanged.  Neither kernel has a batch
    hook, so :func:`score_codes` scores a batch's misses one pair at a
    time: a vectorized numpy edit DP measured slower than the per-pair
    bit-parallel kernel on batches of up to 640 pairs.
    """

    __slots__ = ("name", "min_similarity", "_fn", "_kind", "_backend")

    def __init__(
        self,
        name: str,
        fn: Any,
        *,
        min_similarity: float = 0.0,
        kind: str | None = None,
        backend: str | None = None,
    ) -> None:
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError(
                f"min_similarity outside [0, 1]: {min_similarity}"
            )
        self.name = str(name)
        self.min_similarity = float(min_similarity)
        self._fn = fn
        self._kind = kind
        self._backend = backend if backend is not None else (
            "python" if kind is not None else None
        )

    def __call__(self, left: Any, right: Any) -> float:
        return self._fn(left, right, min_similarity=self.min_similarity)

    @property
    def kind(self) -> str | None:
        """The kernel kind (``"levenshtein"`` / ``"damerau_levenshtein"``)
        when backend-aware, else ``None``."""
        return self._kind

    def with_min_similarity(self, min_similarity: float) -> "BandedEditComparator":
        """A clone computing with the given similarity floor.

        The clone prunes at exactly *min_similarity* — raising,
        lowering, or (with ``0.0``) removing the current band; only a
        floor of ``0.0`` yields a comparator bitwise-equal to the exact
        kernel everywhere.
        """
        if min_similarity == self.min_similarity:
            return self
        return BandedEditComparator(
            self.name,
            self._fn,
            min_similarity=min_similarity,
            kind=self._kind,
            backend=self._backend,
        )

    def with_backend(self, backend: str) -> "BandedEditComparator":
        """A clone whose kernel is *backend* (``"fast"`` or ``"python"``).

        Results are unchanged — the fast kernel is pinned bitwise to the
        reference DPs — so this is purely a performance selection.
        Comparators without a :attr:`kind` (opaque wrapped functions)
        return themselves unchanged.
        """
        kernel = resolve_kernel(backend)
        if self._kind is None or kernel == self._backend:
            return self
        return BandedEditComparator(
            self.name,
            _KERNEL_TABLE[self._kind, kernel],
            min_similarity=self.min_similarity,
            kind=self._kind,
            backend=kernel,
        )

    def __repr__(self) -> str:
        if self.min_similarity > 0.0:
            return (
                f"BandedEditComparator({self.name!r}, "
                f"min_similarity={self.min_similarity:g})"
            )
        return f"BandedEditComparator({self.name!r})"


#: Fewest pairs a batch must hold before :func:`score_codes` hands it
#: to a comparator's vectorized ``batch_code_similarities`` hook instead
#: of looping the comparator.  Only Jaro–Winkler has such a hook: its
#: bit-parallel scan costs 0.2–0.25 ms per call however small the
#: batch, then about 1 µs per pair against about 9 µs for a per-pair
#: call on job titles, so it wins from about 30 pairs.  The
#: ``test_bench_jaro_winkler_crossover`` rows of
#: ``benchmarks/test_bench_kernels.py`` measure both sides (medians on
#: a 2-CPU x86-64 VM: 210 µs against 19 µs at 2 pairs, 294 against
#: 350 at 37, 563 against 2,820 at 300).  Names are shorter and cheaper
#: per pair, so the bound sits a little above the job-title crossover.
#: The choice follows the batch's own size, never an option.
BATCH_SCORE_MIN_PAIRS = 40


def score_codes(
    base: Comparator,
    elements: list[Any],
    lefts: np.ndarray,
    rights: np.ndarray,
) -> Any:
    """``base(elements[lefts[i]], elements[rights[i]])`` for every i,
    batched when it pays.

    Batches of at least :data:`BATCH_SCORE_MIN_PAIRS` go through the
    comparator's ``batch_code_similarities`` hook when it has one (and
    the hook does not decline with ``None``), scored straight from the
    codes; results are bitwise the same either way.  The edit kernels
    have no hook, so their misses are always scored per pair.
    """
    if len(lefts) >= BATCH_SCORE_MIN_PAIRS:
        batch = getattr(base, "batch_code_similarities", None)
        if callable(batch):
            results = batch(elements, lefts, rights)
            if results is not None:
                return results
    element = elements.__getitem__
    return [
        base(element(left), element(right))
        for left, right in zip(lefts.tolist(), rights.tolist())
    ]


def unique_in_order(
    keys: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(distinct, inverse, occurrences, first)`` of an int64 key array.

    *distinct* lists each key once, in order of first occurrence, and
    ``distinct[inverse] == keys``; *first* holds each distinct key's
    first position and *occurrences* how often it occurs — or, with
    *counts*, the sum of the counts of its positions.  One unstable
    sort: each group's first position is its smallest.
    """
    if not len(keys):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    permutation = np.argsort(keys)
    ordered = keys[permutation]
    boundary = np.empty(len(keys), dtype=bool)
    boundary[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    first = np.minimum.reduceat(permutation, starts)
    rank = np.empty(len(starts), dtype=np.int64)
    order = np.argsort(first)
    rank[order] = np.arange(len(starts))
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[permutation] = rank[np.cumsum(boundary) - 1]
    if counts is None:
        occurrences = np.diff(np.append(starts, len(keys)))
    else:
        occurrences = np.add.reduceat(
            np.asarray(counts, dtype=np.int64)[permutation], starts
        )
    first = first[order]
    return keys[first], inverse, occurrences[order], first


class AppendArray:
    """A one-dimensional numpy array that only grows at its end.

    Appends land in a buffer that doubles when full, so a run of
    appends costs amortized O(1) each; :attr:`array` is a view of the
    filled part, valid until the next append.
    """

    __slots__ = ("_buffer", "_size")

    def __init__(self, dtype) -> None:
        self._buffer = np.empty(16, dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def array(self) -> np.ndarray:
        return self._buffer[: self._size]

    def _reserve(self, size: int) -> None:
        if size > len(self._buffer):
            buffer = np.empty(
                max(size, 2 * len(self._buffer)), dtype=self._buffer.dtype
            )
            buffer[: self._size] = self._buffer[: self._size]
            self._buffer = buffer

    def append(self, value) -> None:
        self._reserve(self._size + 1)
        self._buffer[self._size] = value
        self._size += 1

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self._buffer.dtype)
        end = self._size + len(values)
        self._reserve(end)
        self._buffer[self._size : end] = values
        self._size = end


#: Base of the integer key of a pair of codes, ``first * PAIR_BASE +
#: second``: a cache entry's key (lower code first) and an Equation-5
#: memo entry's (ordered).  Odd and about 2**31.3, so the low bits a
#: dict probes first mix both codes; under ``first << 32 | second``
#: they would be *second*'s alone, and every probe of a table over a
#: few hundred elements would start on one of a few hundred slots.
#: Keys stay unique while codes stay below it.
PAIR_BASE = 0x9E37_79B1

#: Bits of the quiet NaN :func:`probe` gets back for an absent key —
#: ``dict.get``'s default, told apart from every stored value (an
#: ordinary NaN included) by its payload.
_MISS_BITS = 0x7FF8_DEAD_BEEF_0001
_MISS = float(np.array(_MISS_BITS, dtype=np.int64).view(np.float64))


def probe(
    table: dict[int, float], keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(values, missed)``: *table*'s value for each of *keys* (garbage
    where absent) and the positions of the absent keys — one C-level
    pass of ``dict.get``, no per-key Python."""
    values = np.fromiter(
        map(table.get, keys.tolist(), repeat(_MISS)),
        dtype=np.float64,
        count=len(keys),
    )
    return values, np.flatnonzero(values.view(np.int64) == _MISS_BITS)


class SimilarityCache:
    """Memoize a symmetric domain-element comparator.

    Wraps any normalized comparison function and caches results on
    unordered element pairs, so ``sim(a, b)`` and ``sim(b, a)`` share
    one entry.  Each element gets an integer code — strings by value,
    other operands by ``(type, value)``, so ``1`` and ``1.0`` (equal as
    dict keys, different as strings) stay apart — and each entry is
    stored under one int, ``lo * PAIR_BASE + hi`` of its two codes.  Equal
    operands *of the same type* short-circuit to 1.0 without touching
    the table (every normalized similarity is reflexive; the type
    guard keeps cross-type equalities like ``1 == 1.0`` out of the
    shortcut).

    Parameters
    ----------
    base:
        The comparator to memoize.
    max_entries:
        Soft capacity bound.  When the table would exceed it, the cache
        is cleared wholesale, codes included (cheap, and the working set
        repopulates in one pass) — a deliberate trade against LRU
        bookkeeping on the hot path.
    reflexive_value:
        The result for equal same-type operands, answered without
        touching the table.  1.0 (default) fits normalized
        similarities; pass 0.0 to memoize a *distance* function.
    band:
        The similarity floor the *base* comparator is configured with
        (0.0 for an exact comparator).  Entries of a banded cache hold
        cutoff-pruned results — exact at or above the band, possibly
        0.0 below it — so caches of different bands never share a
        table.
    """

    __slots__ = (
        "base",
        "max_entries",
        "hits",
        "misses",
        "reflexive_value",
        "band",
        "_table",
        "_codes",
        "_clears",
    )

    def __init__(
        self,
        base: Comparator,
        *,
        max_entries: int = 1_000_000,
        reflexive_value: float = 1.0,
        band: float = 0.0,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if not 0.0 <= band <= 1.0:
            raise ValueError(f"band outside [0, 1]: {band}")
        self.base = base
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self.reflexive_value = float(reflexive_value)
        self.band = float(band)
        #: Similarities by ``lo * PAIR_BASE + hi`` of the operands'
        #: codes, in insertion order.
        self._table: dict[int, float] = {}
        #: Element key (a string, or ``(type, value)``) → code; codes
        #: count up from 0 in coding order.
        self._codes: dict[Any, int] = {}
        #: Wholesale clears of the table so far.
        self._clears = 0

    def __call__(self, left: Any, right: Any) -> float:
        if left is right or (type(left) is type(right) and left == right):
            return self.reflexive_value
        # Subscripts, not .get: a hit is three C-level probes, and the
        # KeyError only ever precedes a miss.
        codes = self._codes
        try:
            a = codes[left if type(left) is str else (type(left), left)]
            b = codes[right if type(right) is str else (type(right), right)]
            cached = self._table[
                a * PAIR_BASE + b if a < b else b * PAIR_BASE + a
            ]
        except KeyError:
            pass
        else:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.base(left, right)
        if len(self._table) >= self.max_entries:
            self._reset()
        a = self._code(left)
        b = self._code(right)
        self._table[a * PAIR_BASE + b if a < b else b * PAIR_BASE + a] = result
        return result

    def _code(self, element: Any) -> int:
        """The code of *element*, coding it if unseen."""
        codes = self._codes
        return codes.setdefault(
            element if type(element) is str else (type(element), element),
            len(codes),
        )

    def lookup_codes(
        self,
        elements: list[Any],
        lefts: np.ndarray,
        rights: np.ndarray,
        translations: dict,
        counts: list[int] | None = None,
    ) -> np.ndarray:
        """``self(elements[lefts[i]], elements[rights[i]])`` for every i.

        *lefts* and *rights* are the caller's own codes for the
        operands listed in *elements*; equal codes must mean equal
        same-type elements, which are answered reflexively, uncounted.
        *translations* is a dict the caller keeps with its codes: the
        cache stores in it the array mapping them to its own codes,
        grown as *elements* grows and rebuilt after a wholesale clear.

        Each pair stands for *counts[i]* identical lookups (default
        one).  Answers, stores and counts exactly what that many
        per-pair calls would, in any order — a repeated miss counts as
        the hit the first one's stored entry would have served — but
        probes and fills the table
        in bulk and scores the distinct misses in one
        :func:`score_codes` call, each in the orientation of its first
        occurrence and stored in first-occurrence order.  A batch that
        could fill the table takes the per-pair path, whose wholesale
        clear it would otherwise have to replay.
        """
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        results = np.full(len(lefts), self.reflexive_value)
        compared = np.flatnonzero(lefts != rights)
        if not len(compared):
            return results
        lefts = lefts[compared]
        rights = rights[compared]
        counts = (
            np.ones(len(compared), dtype=np.int64)
            if counts is None
            else np.asarray(counts, dtype=np.int64)[compared]
        )
        distinct, inverse, occurrences, first = unique_in_order(
            np.minimum(lefts, rights) * PAIR_BASE + np.maximum(lefts, rights),
            counts,
        )
        if len(self._table) + len(distinct) >= self.max_entries:
            values = []
            for left, right, repeats in zip(
                lefts.tolist(), rights.tolist(), counts.tolist()
            ):
                for _ in range(repeats):
                    value = self(elements[left], elements[right])
                values.append(value)
            results[compared] = values
            return results
        lefts = lefts[first]
        rights = rights[first]
        mine = self._translation(elements, lefts, rights, translations)
        left_codes = mine[lefts]
        right_codes = mine[rights]
        keys = np.minimum(left_codes, right_codes) * PAIR_BASE + np.maximum(
            left_codes, right_codes
        )
        found, missed = probe(self._table, keys)
        repeats = int(occurrences[missed].sum())
        self.hits += int(occurrences.sum()) - repeats
        if len(missed):
            self.misses += len(missed)
            self.hits += repeats - len(missed)
            found[missed] = score_codes(
                self.base, elements, lefts[missed], rights[missed]
            )
            self._table.update(
                zip(keys[missed].tolist(), found[missed].tolist())
            )
        results[compared] = found[inverse]
        return results

    def _translation(
        self,
        elements: list[Any],
        lefts: np.ndarray,
        rights: np.ndarray,
        translations: dict,
    ) -> np.ndarray:
        """The caller-code → cache-code array of *translations*, with
        every operand of *lefts* / *rights* coded."""
        codes = self._codes
        entry = translations.get(id(codes))
        if entry is None or entry[1] != self._clears:
            # The entry holds the code map, so its id stays unique.
            entry = translations[id(codes)] = [
                codes, self._clears, np.zeros(0, dtype=np.int64),
            ]
        mine = entry[2]
        if len(mine) < len(elements):
            mine = entry[2] = np.concatenate(
                (mine, np.full(len(elements) - len(mine), -1, dtype=np.int64))
            )
        used = np.concatenate((lefts, rights))
        pending = np.unique(used[mine[used] < 0])
        if len(pending):
            mine[pending] = self._encode(
                list(map(elements.__getitem__, pending.tolist()))
            )
        return mine

    def _encode(self, operands: list[Any]) -> np.ndarray:
        """The codes of *operands*, coding the unseen ones."""
        keys = [x if type(x) is str else (type(x), x) for x in operands]
        codes = self._codes
        fresh = [key for key in dict.fromkeys(keys) if key not in codes]
        codes.update(zip(fresh, count(len(codes))))
        return np.fromiter(
            map(codes.__getitem__, keys), dtype=np.int64, count=len(keys)
        )

    def _reset(self) -> None:
        """Empty the table and code map (the wholesale clear)."""
        self._table.clear()
        self._codes.clear()
        self._clears += 1

    def __len__(self) -> int:
        return len(self._table)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all entries and codes and reset the statistics."""
        self._reset()
        self.hits = 0
        self.misses = 0

    @property
    def name(self) -> str:
        """Expose the wrapped comparator's name for reports."""
        return getattr(self.base, "name", "comparator")

    def __repr__(self) -> str:
        banded = f", band={self.band:g}" if self.band > 0.0 else ""
        return (
            f"SimilarityCache({self.name}, entries={len(self._table)}, "
            f"hit_rate={self.hit_rate:.2%}{banded})"
        )


#: Ready-to-use banded comparator instances (exact: cutoff disabled at
#: similarity floor 0, so they equal the reference comparators bit for
#: bit).  Both are *bandable*: ``with_min_similarity(floor)`` yields the
#: cutoff-pruned variant the threshold-pushdown layer threads through
#: :class:`~repro.similarity.uncertain.UncertainValueComparator`.  They
#: are built on the ``"fast"`` kernel, the one a default run resolves
#: to, so a default run scores through them (and their caches) without
#: a kernel clone.
FAST_LEVENSHTEIN = BandedEditComparator(
    "fast_levenshtein",
    bitparallel_levenshtein_similarity,
    kind="levenshtein",
    backend="fast",
)
FAST_DAMERAU_LEVENSHTEIN = BandedEditComparator(
    "fast_damerau_levenshtein",
    bitparallel_damerau_levenshtein_similarity,
    kind="damerau_levenshtein",
    backend="fast",
)
