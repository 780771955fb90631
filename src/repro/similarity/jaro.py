"""Jaro and Jaro–Winkler similarities.

The Jaro distance is named by Section III-C among the standard syntactic
comparison functions [15]; Jaro–Winkler adds the prefix bonus that Winkler
introduced for census name matching [27].
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.similarity.base import NamedComparator, as_strings, clamp01


def jaro_similarity(left: Any, right: Any) -> float:
    """Classic Jaro similarity in ``[0, 1]``.

    Characters match when equal and within half the longer length
    (rounded down, minus one) of each other; the score combines the match
    counts and transposition count in Jaro's formula.
    """
    left_str, right_str = as_strings(left, right)
    if left_str == right_str:
        return 1.0
    left_len, right_len = len(left_str), len(right_str)
    if left_len == 0 or right_len == 0:
        return 0.0
    window = max(left_len, right_len) // 2 - 1
    window = max(window, 0)

    left_matched = [False] * left_len
    right_matched = [False] * right_len
    matches = 0
    for i, char in enumerate(left_str):
        start = max(0, i - window)
        stop = min(i + window + 1, right_len)
        for j in range(start, stop):
            if right_matched[j] or right_str[j] != char:
                continue
            left_matched[i] = True
            right_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0

    transpositions = 0
    j = 0
    for i in range(left_len):
        if not left_matched[i]:
            continue
        while not right_matched[j]:
            j += 1
        if left_str[i] != right_str[j]:
            transpositions += 1
        j += 1
    transpositions //= 2

    return (
        matches / left_len
        + matches / right_len
        + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    left: Any,
    right: Any,
    *,
    prefix_scale: float = 0.1,
    max_prefix: int = 4,
) -> float:
    """Jaro similarity with Winkler's common-prefix bonus.

    ``sim = jaro + ℓ · p · (1 - jaro)`` where ``ℓ`` is the length of the
    common prefix (capped at *max_prefix*) and ``p`` the *prefix_scale*
    (0.1 by default, keeping results ≤ 1 for prefixes up to 4).
    """
    if not 0.0 <= prefix_scale * max_prefix <= 1.0:
        raise ValueError("prefix_scale * max_prefix must stay within [0, 1]")
    left_str, right_str = as_strings(left, right)
    jaro = jaro_similarity(left_str, right_str)
    prefix = 0
    for left_char, right_char in zip(left_str, right_str):
        if left_char != right_char or prefix >= max_prefix:
            break
        prefix += 1
    return clamp01(jaro + prefix * prefix_scale * (1.0 - jaro))


def jaro_winkler_upper_bound(
    left_str: str,
    right_str: str,
    *,
    prefix_scale: float = 0.1,
    max_prefix: int = 4,
) -> float:
    """A cheap upper bound on the Jaro–Winkler similarity.

    Matches are at most ``min(len(a), len(b))`` and the transposition
    term is at most 1, so ``jaro ≤ (mn/la + mn/lb + 1) / 3``; Winkler's
    bonus is monotone in the Jaro score, so substituting the bound and
    the *actual* common prefix (``O(max_prefix)`` to compute) bounds the
    final similarity.  Costs a handful of arithmetic operations versus
    the ``O(la · lb)`` match window scan — the pushdown layer uses it to
    skip the scan entirely when a pair provably falls below a floor.
    """
    if left_str == right_str:
        return 1.0
    left_len, right_len = len(left_str), len(right_str)
    if left_len == 0 or right_len == 0:
        return 0.0
    shortest = min(left_len, right_len)
    jaro_bound = (shortest / left_len + shortest / right_len + 1.0) / 3.0
    prefix = 0
    for left_char, right_char in zip(left_str, right_str):
        if left_char != right_char or prefix >= max_prefix:
            break
        prefix += 1
    return clamp01(jaro_bound + prefix * prefix_scale * (1.0 - jaro_bound))


#: Codepoint filling the rows of strings shorter than the batch's
#: longest one; above U+10FFFF, so it never equals a real character.
CODEPOINT_PAD = np.uint32(0xFFFFFFFF)


def coded_rows(
    elements: Sequence[Any], lefts: np.ndarray, rights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, lengths, left_rows, right_rows)`` of the pairs
    ``elements[lefts[i]], elements[rights[i]]``.

    Each element the codes name is encoded once, as its ``str``, into
    one ``uint32`` codepoint row padded with :data:`CODEPOINT_PAD` (one
    encode of the concatenation and one scatter); pair ``i`` compares
    row ``left_rows[i]`` with row ``right_rows[i]``.
    """
    lefts = np.asarray(lefts, dtype=np.int64)
    used, inverse = np.unique(
        np.concatenate((lefts, np.asarray(rights, dtype=np.int64))),
        return_inverse=True,
    )
    strings = [str(elements[code]) for code in used.tolist()]
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(used))
    width = max(int(lengths.max(initial=0)), 1)
    rows = np.full((len(strings), width), CODEPOINT_PAD, dtype=np.uint32)
    flat = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    if flat.size:
        row_of = np.repeat(np.arange(len(strings)), lengths)
        starts = np.cumsum(lengths) - lengths
        rows[row_of, np.arange(flat.size) - starts[row_of]] = flat
    return rows, lengths, inverse[: len(lefts)], inverse[len(lefts) :]


#: Cells (pairs × length²) scored per vectorized slice: bounds the
#: ``pairs × length × length`` match-candidate arrays of
#: :func:`coded_jaro_winkler_similarities` to a few hundred kilobytes
#: however large the batch or long its strings.
_SLICE_CELLS = 1 << 18


def _jaro_winkler_slice(
    left: np.ndarray,
    right: np.ndarray,
    left_len: np.ndarray,
    right_len: np.ndarray,
    prefix_scale: float,
    max_prefix: int,
    min_similarity: float,
) -> np.ndarray:
    """Jaro–Winkler of one slice of padded codepoint rows.

    Every step is the scalar :func:`jaro_winkler_similarity` applied to
    all rows at once, with the same operand order in each float
    operation, so each result is bitwise the scalar one:

    * the greedy match scan runs once per left position — each row's
      candidate is its first unmatched equal character inside the
      window, found with one ``argmax`` over the whole slice;
    * transpositions compare the matched characters of both sides in
      position order, each moved to the slot its running match count
      names;
    * with a positive *min_similarity* the upper bound of
      :func:`jaro_winkler_upper_bound` is evaluated first and rows it
      proves below the floor read 0.0 without joining the scan.
    """
    count = len(left)
    width = max(left.shape[1], right.shape[1], max_prefix)
    if left.shape[1] < width:
        left = np.pad(
            left,
            ((0, 0), (0, width - left.shape[1])),
            constant_values=CODEPOINT_PAD,
        )
    if right.shape[1] < width:
        right = np.pad(
            right,
            ((0, 0), (0, width - right.shape[1])),
            constant_values=CODEPOINT_PAD,
        )
    # Winkler's common prefix, capped at max_prefix.
    prefix = np.zeros(count, dtype=np.int64)
    alive = np.ones(count, dtype=bool)
    shortest = np.minimum(left_len, right_len)
    for position in range(max_prefix):
        alive &= (left[:, position] == right[:, position]) & (
            position < shortest
        )
        prefix += alive
    equal = (left_len == right_len) & (left == right).all(axis=1)
    empty = shortest == 0
    result = np.zeros(count, dtype=np.float64)
    scan = ~(equal | empty)
    if min_similarity > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (shortest / left_len + shortest / right_len + 1.0) / 3.0
            bound = bound + prefix * prefix_scale * (1.0 - bound)
        bound = np.minimum(np.maximum(bound, 0.0), 1.0)
        scan &= ~(bound < min_similarity)
    result[equal] = 1.0
    rows = np.flatnonzero(scan)
    if rows.size:
        result[rows] = _jaro_winkler_scanned(
            left[rows],
            right[rows],
            left_len[rows],
            right_len[rows],
            prefix[rows],
            prefix_scale,
        )
    return result


def _jaro_winkler_scanned(
    left, right, left_len, right_len, prefix, prefix_scale
) -> np.ndarray:
    """The match scan and Jaro–Winkler formula for non-trivial rows."""
    count, width = left.shape
    window = np.maximum(np.maximum(left_len, right_len) // 2 - 1, 0)
    columns = np.arange(width)
    all_rows = np.arange(count)
    # candidates[r, i, j]: right[j] equals left[i], |i - j| is within
    # the row's window and j is inside the right string.  Padding never
    # matches: a padded left position equals only right padding, which
    # lies beyond the right string.
    bands = np.abs(columns[:, None] - columns) <= (
        np.arange(int(window.max()) + 1)[:, None, None]
    )
    candidates = right[:, None, :] == left[:, :, None]
    candidates &= bands[window]
    candidates &= (columns < right_len[:, None])[:, None, :]
    left_matched = np.zeros((count, width), dtype=bool)
    right_free = np.ones((count, width), dtype=bool)
    for position in range(int(left_len.max())):
        open_ = candidates[:, position, :] & right_free
        first = open_.argmax(axis=1)
        found = open_[all_rows, first]
        right_free[all_rows[found], first[found]] = False
        left_matched[:, position] = found
    matches = left_matched.sum(axis=1)
    # A transposition is a position k where the k-th matched characters
    # of the two sides differ; unmatched tails stay padding on both.
    differ = _matched_in_order(left, left_matched) != _matched_in_order(
        right, ~right_free
    )
    transpositions = differ.sum(axis=1) // 2
    with np.errstate(divide="ignore", invalid="ignore"):
        jaro = (
            matches / left_len
            + matches / right_len
            + (matches - transpositions) / matches
        ) / 3.0
    jaro[matches == 0] = 0.0
    similarity = jaro + prefix * prefix_scale * (1.0 - jaro)
    return np.minimum(np.maximum(similarity, 0.0), 1.0)


def _matched_in_order(text: np.ndarray, matched: np.ndarray) -> np.ndarray:
    """Each row's matched characters moved to the front, in position
    order, padding behind."""
    rows, positions = np.nonzero(matched)
    rank = np.cumsum(matched, axis=1)[rows, positions] - 1
    ordered = np.full(text.shape, CODEPOINT_PAD, dtype=np.uint32)
    ordered[rows, rank] = text[rows, positions]
    return ordered


def coded_jaro_winkler_similarities(
    elements: Sequence[Any],
    lefts: np.ndarray,
    rights: np.ndarray,
    *,
    prefix_scale: float = 0.1,
    max_prefix: int = 4,
    min_similarity: float = 0.0,
) -> np.ndarray:
    """Jaro–Winkler of the pairs ``elements[lefts[i]],
    elements[rights[i]]``, vectorized with numpy, as float64.

    Bitwise equal, pair by pair, to :class:`BoundedJaroWinkler` with
    the same parameters (so to :func:`jaro_winkler_similarity` when
    *min_similarity* is 0).  Each element the codes name is encoded
    once as a padded codepoint row; pairs are scored in slices of
    similar length, so padding stays small and the working arrays stay
    bounded.
    """
    if not 0.0 <= prefix_scale * max_prefix <= 1.0:
        raise ValueError("prefix_scale * max_prefix must stay within [0, 1]")
    rows, lengths, left_rows, right_rows = coded_rows(elements, lefts, rights)
    left_len = lengths[left_rows]
    right_len = lengths[right_rows]
    longest = np.maximum(left_len, right_len)
    order = np.argsort(longest, kind="stable")
    count = len(left_rows)
    result = np.empty(count, dtype=np.float64)
    start = 0
    while start < count:
        # Pairs come shortest first, so the slice's last pair is its
        # widest; shrink the slice until its arrays fit the budget.
        stop = count
        width = max(int(longest[order[stop - 1]]), 1)
        while stop - start > 1 and (stop - start) * width * width > _SLICE_CELLS:
            stop = start + max(1, _SLICE_CELLS // (width * width))
            width = max(int(longest[order[stop - 1]]), 1)
        members = order[start:stop]
        start = stop
        result[members] = _jaro_winkler_slice(
            rows[left_rows[members], :width],
            rows[right_rows[members], :width],
            left_len[members],
            right_len[members],
            prefix_scale,
            max_prefix,
            min_similarity,
        )
    return result


class BoundedJaroWinkler:
    """A Jaro–Winkler comparator with a pushdown similarity floor.

    Callable like any comparator and *bandable* like
    :class:`repro.similarity.kernels.BandedEditComparator`: clones from
    :meth:`with_min_similarity` first evaluate
    :func:`jaro_winkler_upper_bound` and answer 0.0 without running the
    ``O(la · lb)`` match scan whenever the bound proves the pair falls
    below the floor.  Same pushdown contract as the edit kernels —
    exact at or above the floor, exact or 0.0 below it — so decision
    models with ``T_λ ≥ min_similarity`` cannot observe the pruning.
    """

    __slots__ = ("name", "min_similarity", "_scale", "_max_prefix")

    def __init__(
        self,
        name: str = "fast_jaro_winkler",
        *,
        min_similarity: float = 0.0,
        prefix_scale: float = 0.1,
        max_prefix: int = 4,
    ) -> None:
        if not 0.0 <= min_similarity <= 1.0:
            raise ValueError(
                f"min_similarity outside [0, 1]: {min_similarity}"
            )
        self.name = str(name)
        self.min_similarity = float(min_similarity)
        self._scale = float(prefix_scale)
        self._max_prefix = int(max_prefix)

    def __call__(self, left: Any, right: Any) -> float:
        left_str, right_str = as_strings(left, right)
        if self.min_similarity > 0.0:
            bound = jaro_winkler_upper_bound(
                left_str,
                right_str,
                prefix_scale=self._scale,
                max_prefix=self._max_prefix,
            )
            if bound < self.min_similarity:
                return 0.0
        return jaro_winkler_similarity(
            left_str,
            right_str,
            prefix_scale=self._scale,
            max_prefix=self._max_prefix,
        )

    def batch_code_similarities(
        self, elements: Sequence[Any], lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """The comparator's scores of the pairs ``elements[lefts[i]],
        elements[rights[i]]``, bitwise, scored from the codes in one
        numpy batch (see :func:`coded_jaro_winkler_similarities`)."""
        return coded_jaro_winkler_similarities(
            elements,
            lefts,
            rights,
            prefix_scale=self._scale,
            max_prefix=self._max_prefix,
            min_similarity=self.min_similarity,
        )

    def with_min_similarity(
        self, min_similarity: float
    ) -> "BoundedJaroWinkler":
        """A clone pruning at exactly *min_similarity* (0.0 disables)."""
        if min_similarity == self.min_similarity:
            return self
        return BoundedJaroWinkler(
            self.name,
            min_similarity=min_similarity,
            prefix_scale=self._scale,
            max_prefix=self._max_prefix,
        )

    def __repr__(self) -> str:
        if self.min_similarity > 0.0:
            return (
                f"BoundedJaroWinkler({self.name!r}, "
                f"min_similarity={self.min_similarity:g})"
            )
        return f"BoundedJaroWinkler({self.name!r})"


#: Ready-to-use named comparator instances.
JARO = NamedComparator("jaro", jaro_similarity)
JARO_WINKLER = NamedComparator("jaro_winkler", jaro_winkler_similarity)

#: The bandable Jaro–Winkler: exact (bitwise equal to
#: :data:`JARO_WINKLER`) until the threshold-pushdown layer hands it a
#: floor, after which provably-below-floor pairs short-circuit to 0.0.
FAST_JARO_WINKLER = BoundedJaroWinkler()
