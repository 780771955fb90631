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
  longer influence any matching decision.

* :class:`SimilarityCache` — memoizes a symmetric comparator on
  *unordered* pairs of domain elements.  Duplicate detection re-compares
  the same element pairs constantly (identical values recur across
  alternatives, x-tuples and candidate pairs), so hit rates are high;
  the cache turns a Jaro–Winkler or Levenshtein evaluation into one
  dict lookup.  For block-partitioned execution the cache also supports
  **pre-warming** (:meth:`SimilarityCache.warm` fills the table from an
  observed vocabulary before any candidate pair is decided) and
  **freezing** (:meth:`SimilarityCache.freeze` makes the table
  read-only, so forked workers share the warmed pages copy-on-write
  without ever dirtying them).  Cutoff-pruned results are *banded*:
  each cache records the similarity floor its base comparator was
  configured with (:attr:`SimilarityCache.band`), and
  :meth:`SimilarityCache.banded` hands out one derived cache per active
  band, so pruned entries can never be served to an exact lookup (or
  vice versa).
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import Any, Iterable, Iterator

from repro.similarity.base import (
    Comparator,
    as_strings,
    similarity_from_distance,
)
from repro.similarity.backends.bitparallel import (
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein_similarity,
)
from repro.similarity.backends.numpy_backend import (
    batch_damerau_levenshtein_similarities,
    batch_levenshtein_similarities,
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
#: ``"fast"``, the Myers bit-parallel kernels per pair plus the numpy
#: batch scorer (pinned bitwise to the reference by
#: ``tests/test_backends.py``).  ``"fast"`` is the default.
KERNELS = ("fast", "python")

#: ``(kind, kernel) -> (per-pair similarity, batch scorer or None)``.
_KERNEL_TABLE = {
    ("levenshtein", "python"): (banded_levenshtein_similarity, None),
    ("damerau_levenshtein", "python"): (
        banded_damerau_levenshtein_similarity,
        None,
    ),
    ("levenshtein", "fast"): (
        bitparallel_levenshtein_similarity,
        batch_levenshtein_similarities,
    ),
    ("damerau_levenshtein", "fast"): (
        bitparallel_damerau_levenshtein_similarity,
        batch_damerau_levenshtein_similarities,
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
    the reference DPs — results unchanged, and
    :meth:`batch_similarities` exposes the fast kernel's numpy batch
    scorer to the cache prewarm path.
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

    @property
    def backend_name(self) -> str | None:
        """The kernel (``"fast"`` / ``"python"``) computing this
        comparator's results.

        ``None`` for comparators wrapping an opaque function — those
        cannot be switched and are treated as their own (anonymous)
        kernel by the band-cache registry.
        """
        return self._backend

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
            _KERNEL_TABLE[self._kind, kernel][0],
            min_similarity=self.min_similarity,
            kind=self._kind,
            backend=kernel,
        )

    def batch_similarities(
        self, pairs: Any
    ) -> list[float] | None:
        """Score a batch of pairs via the fast kernel's numpy scorer.

        Returns ``None`` on the ``"python"`` kernel and for opaque
        comparators (the caller then loops per pair); a returned list
        is positionally aligned with *pairs* and bitwise equal to
        calling the comparator on each pair.
        """
        if self._kind is None:
            return None
        batch = _KERNEL_TABLE[self._kind, self._backend][1]
        if batch is None:
            return None
        return batch(pairs, min_similarity=self.min_similarity)

    def __repr__(self) -> str:
        if self.min_similarity > 0.0:
            return (
                f"BandedEditComparator({self.name!r}, "
                f"min_similarity={self.min_similarity:g})"
            )
        return f"BandedEditComparator({self.name!r})"


#: Soft bound on derived band caches memoized per exact cache; on
#: overflow the registry is cleared wholesale (derived caches are
#: re-derivable, and live references keep working — they just stop
#: being shared with future clones).
_MAX_BANDS = 8


def _pair_key(left: Any, right: Any) -> tuple[Any, Any]:
    """Canonical unordered-pair key for a symmetric comparator.

    Orders the operands so ``(a, b)`` and ``(b, a)`` share one cache
    entry.  Strings (the dominant domain) are keyed directly; other
    operands are keyed together with their type, because Python treats
    cross-type equalities like ``1 == 1.0`` as dict-key collisions even
    though their string forms — and hence comparator results — differ.
    Falls back to hash ordering for incomparable operand types; a hash
    tie keeps the given order (costs at most a duplicate entry, never a
    wrong result, because the key stores the actual operands).
    """
    if type(left) is str and type(right) is str:
        return (left, right) if left <= right else (right, left)
    try:
        if right < left:
            left, right = right, left
    except TypeError:
        if hash(right) < hash(left):
            left, right = right, left
    return ((type(left), left), (type(right), right))


#: Fewest pairs a batch must hold before :func:`score_pairs` hands it
#: to a comparator's vectorized ``batch_similarities`` hook instead of
#: looping the comparator.  A numpy batch call costs a fixed few hundred
#: microseconds however small the batch, which per-pair Jaro–Winkler
#: calls only overtake at a few dozen pairs; the
#: ``test_bench_jaro_winkler_crossover`` rows of
#: ``benchmarks/test_bench_kernels.py`` measure both sides at 2, 37 and
#: 300 pairs.  The choice follows the batch's own size, never an option.
BATCH_SCORE_MIN_PAIRS = 40


def score_pairs(base: Comparator, pairs: list[tuple[Any, Any]]) -> list[float]:
    """``[base(left, right) for left, right in pairs]``, batched when it pays.

    Batches of at least :data:`BATCH_SCORE_MIN_PAIRS` go through the
    comparator's ``batch_similarities`` hook when it has one (and the
    hook does not decline with ``None``); results are bitwise the same
    either way.
    """
    if len(pairs) >= BATCH_SCORE_MIN_PAIRS:
        batch = getattr(base, "batch_similarities", None)
        if callable(batch):
            results = batch(pairs)
            if results is not None:
                return results
    return [base(left, right) for left, right in pairs]


def _lookup_key(left: Any, right: Any) -> tuple[Any, Any] | None:
    """The cache key of a lookup, or ``None`` when the reflexive
    shortcut of :meth:`SimilarityCache.__call__` answers it."""
    if left is right or (type(left) is type(right) and left == right):
        return None
    return _pair_key(left, right)


#: Public alias: the canonical unordered-pair key, used by pair-aware
#: prewarm collection (:func:`repro.reduction.plan.partition_value_pairs`)
#: to deduplicate candidate value pairs exactly as the cache would.
pair_key = _pair_key


class SimilarityCache:
    """Memoize a symmetric domain-element comparator.

    Wraps any normalized comparison function and caches results under
    unordered-pair keys, so ``sim(a, b)`` and ``sim(b, a)`` share one
    entry.  Equal operands *of the same type* short-circuit to 1.0
    without touching the dictionary (every normalized similarity is
    reflexive; the type guard keeps cross-type equalities like
    ``1 == 1.0`` — whose string forms differ — out of the shortcut).

    Parameters
    ----------
    base:
        The comparator to memoize.
    max_entries:
        Soft capacity bound.  When the store would exceed it, the cache
        is cleared wholesale (cheap, and the working set repopulates in
        one pass) — a deliberate trade against LRU bookkeeping on the
        hot path.
    reflexive_value:
        The result for equal same-type operands, answered without
        touching the dictionary.  1.0 (default) fits normalized
        similarities; pass 0.0 to memoize a *distance* function.
    band:
        The similarity floor the *base* comparator is configured with
        (0.0 for an exact comparator).  Entries of a banded cache hold
        cutoff-pruned results — exact at or above the band, possibly
        0.0 below it — so caches of different bands never share a
        store; :meth:`banded` is the constructor that keeps one derived
        cache per active band.
    """

    __slots__ = (
        "base",
        "max_entries",
        "hits",
        "misses",
        "warmed",
        "reflexive_value",
        "band",
        "_bands",
        "_frozen",
        "_store",
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
        self.warmed = 0
        self.reflexive_value = float(reflexive_value)
        self.band = float(band)
        self._bands: dict[
            tuple[float, str | None], "SimilarityCache"
        ] = {}
        self._frozen = False
        self._store: dict[tuple[Any, Any], float] = {}
        #: Wholesale clears of the store so far — one counter shared
        #: with every :meth:`with_base` view, like the store itself.
        self._clears = [0]

    def __call__(self, left: Any, right: Any) -> float:
        if left is right or (type(left) is type(right) and left == right):
            return self.reflexive_value
        key = _pair_key(left, right)
        store = self._store
        cached = store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        result = self.base(left, right)
        if not self._frozen:
            if len(store) >= self.max_entries:
                store.clear()
                self._clears[0] += 1
            store[key] = result
        return result

    def lookup_batch(
        self,
        pairs: list[tuple[Any, Any]],
        counts: list[int] | None = None,
    ) -> list[float]:
        """``self(left, right)`` for each pair, misses scored in one batch.

        Each pair stands for *counts[i]* identical lookups (default one).
        Answers, stores and counts exactly what that many per-pair calls
        would, in any order — a repeated miss counts as the hit the
        first one's stored entry would have served, or, while frozen,
        as another miss — but scores the distinct misses in one
        :func:`score_pairs` call.  A batch that could fill the store
        takes the per-pair path, whose wholesale clear it would
        otherwise have to replay.
        """
        if counts is None:
            counts = [1] * len(pairs)
        store = self._store
        if len(store) + len(pairs) >= self.max_entries:
            results = []
            for (left, right), count in zip(pairs, counts):
                for _ in range(count):
                    value = self(left, right)
                results.append(value)
            return results
        # Keys as __call__ builds them (None: answered reflexively,
        # uncounted); comprehensions and map keep the loop in C.
        keys = [
            ((left, right) if left < right else (right, left))
            if type(left) is str and type(right) is str and left != right
            else _lookup_key(left, right)
            for left, right in pairs
        ]
        results = list(map(store.get, keys))
        self.hits += sum(
            count
            for count, found in zip(counts, results)
            if found is not None
        )
        absent = [
            index
            for index, (key, found) in enumerate(zip(keys, results))
            if found is None
        ]
        reflexive = self.reflexive_value
        first: dict[tuple[Any, Any], int] = {}
        occurrences = 0
        for index in absent:
            key = keys[index]
            if key is None:
                results[index] = reflexive
            else:
                first.setdefault(key, index)
                occurrences += counts[index]
        if not first:
            return results
        if self._frozen:
            self.misses += occurrences
        else:
            self.misses += len(first)
            self.hits += occurrences - len(first)
        fresh = dict(
            zip(first, score_pairs(self.base, [pairs[i] for i in first.values()]))
        )
        for index in absent:
            key = keys[index]
            if key is not None:
                results[index] = fresh[key]
        if not self._frozen:
            store.update(fresh)
        return results

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # Pre-warm / freeze (block-partitioned execution support)
    # ------------------------------------------------------------------

    def warm(
        self, values: Any, *, budget: int | None = None
    ) -> int:
        """Precompute all pairwise results of a vocabulary.

        Fills the table with ``base(a, b)`` for every unordered pair of
        distinct *values*, skipping pairs already stored, so a plan
        scheduler can build the shared similarity table once in the
        parent before forking workers.  Warming never changes a result —
        entries hold exactly what a cold lookup would compute.

        Parameters
        ----------
        values:
            The observed vocabulary (duplicates are collapsed, input
            order preserved so warming is deterministic).
        budget:
            Optional bound on the number of pairs *examined* (stored or
            already present).  Warming stops once the budget or
            :attr:`max_entries` is reached; it never triggers the
            wholesale clear that a hot-path overflow would.

        Returns
        -------
        int
            Number of entries newly stored (always 0 while frozen —
            warming is a write and respects the read-only contract).
        """
        unique = dict.fromkeys(values)
        return self.warm_pairs(combinations(unique, 2), budget=budget)

    def warm_pairs(
        self,
        pairs: Iterable[tuple[Any, Any]],
        *,
        budget: int | None = None,
    ) -> int:
        """Precompute results for an explicit sequence of value pairs.

        The pair-aware counterpart of :meth:`warm`: instead of the full
        vocabulary square, only the given candidate combinations are
        examined (duplicates and reflexive same-type-equal pairs — which
        the lookup path short-circuits anyway — are skipped).  When the
        base comparator exposes a vectorized ``batch_similarities`` hook
        (see :meth:`BandedEditComparator.batch_similarities`), all
        missing entries of the batch are scored in one call instead of
        pair by pair — results are identical either way, the hook is
        purely a throughput lever.

        Same bookkeeping contract as :meth:`warm`: *budget* bounds the
        number of pairs examined, warming stops at :attr:`max_entries`
        without triggering the wholesale clear, and the return value is
        the number of entries newly stored (0 while frozen).
        """
        if self._frozen:
            return 0
        store = self._store
        max_entries = self.max_entries
        examined = 0
        pending: dict[tuple[Any, Any], tuple[Any, Any]] = {}
        for left, right in pairs:
            if budget is not None and examined >= budget:
                break
            examined += 1
            if left is right or (
                type(left) is type(right) and left == right
            ):
                continue
            key = _pair_key(left, right)
            if key in store or key in pending:
                continue
            if len(store) + len(pending) >= max_entries:
                break
            pending[key] = (left, right)
        if not pending:
            return 0
        results = score_pairs(self.base, list(pending.values()))
        for key, result in zip(pending, results):
            store[key] = result
        self.warmed += len(pending)
        return len(pending)

    @property
    def frozen(self) -> bool:
        """Whether the table is read-only (lookups only, no inserts)."""
        return self._frozen

    def freeze(self) -> None:
        """Make the table read-only.

        A frozen cache still answers hits and still computes misses —
        it just stops storing new entries, so the warmed table can be
        shared copy-on-write across forked workers without any page
        ever being dirtied (and without the overflow clear wiping the
        shared table mid-run).
        """
        self._frozen = True

    def thaw(self) -> None:
        """Re-enable inserts after :meth:`freeze`."""
        self._frozen = False

    def banded(self, band: float, base: Comparator) -> "SimilarityCache":
        """The derived cache for one cutoff band.

        Returns a cache whose entries hold the results of *base* (the
        band's cutoff-configured comparator) and whose :attr:`band`
        records the floor — one derived cache per distinct
        ``(band, kernel)`` combination is memoized on this instance,
        so repeated pushdown configurations (re-running detection with
        the same derived floors, or switching kernels back and forth)
        reuse the same warmed banded table instead of silently dropping
        it.  Asking for this cache's own band *and* kernel returns
        ``self``.

        Band stores are deliberately *not* shared across bands: an
        entry computed under a cutoff may read 0.0 where the exact
        table reads the true similarity, and serving one to the other
        would break the pushdown contract.  (Kernels, by contrast, are
        bitwise-interchangeable — the per-kernel keying exists so each
        derived cache keeps computing its misses with the kernel it was
        requested for.)
        """
        band = float(band)
        backend = getattr(base, "backend_name", None)
        if band == self.band and backend == getattr(
            self.base, "backend_name", None
        ):
            return self
        key = (band, backend)
        derived = self._bands.get(key)
        if derived is None:
            derived = SimilarityCache(
                base,
                max_entries=self.max_entries,
                reflexive_value=self.reflexive_value,
                band=band,
            )
            # Soft bound (repo-wide cache policy: clear wholesale, no
            # LRU bookkeeping): a cutoff sweep over many distinct
            # floors must not retain one table per floor ever tried.
            if len(self._bands) >= _MAX_BANDS:
                self._bands.clear()
            self._bands[key] = derived
        return derived

    def with_base(self, base: Comparator) -> "SimilarityCache":
        """A view of this cache computing misses with *base* instead.

        Used by kernel switching: the clone **shares** this cache's
        store, band registry and frozen flag (both kernels return
        bitwise-identical results, so sharing entries across kernels is
        safe and keeps warmed tables warm), but
        scores cache misses with the new comparator.  Hit/miss
        statistics are tracked per view.
        """
        if base is self.base:
            return self
        clone = SimilarityCache(
            base,
            max_entries=self.max_entries,
            reflexive_value=self.reflexive_value,
            band=self.band,
        )
        clone._store = self._store
        clone._clears = self._clears
        clone._bands = self._bands
        clone._frozen = self._frozen
        return clone

    def export_entries(self) -> Iterator[tuple[str, str, float]]:
        """Stream the portable (string-keyed) entries of the table.

        Yields ``(left, right, similarity)`` triples for every entry
        whose operands are plain strings — the dominant domain, and the
        only one a session store can round-trip through JSON without a
        type codec.  Entries under composite keys (non-string operands)
        are simply not exported; they are re-derivable on demand.
        """
        return self._portable(self._store.items())

    @staticmethod
    def _portable(items) -> Iterator[tuple[str, str, float]]:
        for (left, right), value in items:
            if type(left) is str and type(right) is str:
                yield left, right, value

    def cursor(self) -> tuple:
        """A position in the table's insertion order, for
        :meth:`export_since`.

        Entries are only ever appended — lookups, warming and absorbing
        insert, nothing removes one entry — until a wholesale clear
        (the overflow clear or :meth:`clear`) empties the store; the
        cursor records the store, its clear count and its length.
        """
        return (self._store, self._clears[0], len(self._store))

    def export_since(
        self, cursor: tuple
    ) -> list[tuple[str, str, float]] | None:
        """The portable entries stored after *cursor*, in insertion order.

        ``None`` when the table was cleared (or is another table) since
        the cursor was taken: entries exported before it may be gone,
        so only a full :meth:`export_entries` describes the table.
        """
        store, clears, position = cursor
        if store is not self._store or clears != self._clears[0]:
            return None
        # Walk back from the newest entry: O(new entries), not O(table).
        fresh = list(islice(reversed(store.items()), len(store) - position))
        fresh.reverse()
        return list(self._portable(fresh))

    def absorb(self, entries: Iterable[tuple[Any, Any, float]]) -> int:
        """Restore previously exported entries without recomputation.

        The persistence counterpart of :meth:`export_entries`: each
        ``(left, right, similarity)`` triple is stored under the
        canonical unordered-pair key, skipping pairs already present.
        Only values a prior run actually computed should be absorbed —
        the cache trusts them exactly as it trusts its own memoized
        results.  Respects :attr:`frozen` (absorbs nothing) and stops
        at :attr:`max_entries` without triggering the wholesale clear.
        Returns the number of entries newly stored.
        """
        if self._frozen:
            return 0
        store = self._store
        stored = 0
        for left, right, value in entries:
            if len(store) >= self.max_entries:
                break
            key = _pair_key(left, right)
            if key in store:
                continue
            store[key] = float(value)
            stored += 1
        self.warmed += stored
        return stored

    def clear(self) -> None:
        """Drop all entries and reset the statistics."""
        self._store.clear()
        self._clears[0] += 1
        self.hits = 0
        self.misses = 0
        self.warmed = 0

    @property
    def name(self) -> str:
        """Expose the wrapped comparator's name for reports."""
        return getattr(self.base, "name", "comparator")

    def __repr__(self) -> str:
        banded = f", band={self.band:g}" if self.band > 0.0 else ""
        return (
            f"SimilarityCache({self.name}, entries={len(self._store)}, "
            f"hit_rate={self.hit_rate:.2%}{banded})"
        )


#: Ready-to-use banded comparator instances (exact: cutoff disabled at
#: similarity floor 0, so they equal the reference comparators bit for
#: bit).  Both are *bandable*: ``with_min_similarity(floor)`` yields the
#: cutoff-pruned variant the threshold-pushdown layer threads through
#: :class:`~repro.similarity.uncertain.UncertainValueComparator`.
FAST_LEVENSHTEIN = BandedEditComparator(
    "fast_levenshtein",
    banded_levenshtein_similarity,
    kind="levenshtein",
    backend="python",
)
FAST_DAMERAU_LEVENSHTEIN = BandedEditComparator(
    "fast_damerau_levenshtein",
    banded_damerau_levenshtein_similarity,
    kind="damerau_levenshtein",
    backend="python",
)
