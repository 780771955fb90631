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


def _checked_prefix(prefix_scale: float, max_prefix: int) -> tuple[float, int]:
    """Winkler's parameters as ``(float, int)``, checked: both
    non-negative, and the largest bonus weight ``prefix_scale *
    max_prefix`` at most 1, so scores stay within ``[0, 1]``."""
    prefix_scale, max_prefix = float(prefix_scale), int(max_prefix)
    if prefix_scale < 0.0 or max_prefix < 0 or prefix_scale * max_prefix > 1.0:
        raise ValueError(
            "prefix_scale and max_prefix must be non-negative and "
            "prefix_scale * max_prefix must stay within [0, 1]"
        )
    return prefix_scale, max_prefix


#: Longest string the bit-parallel scan scores: one ``uint64`` mask bit
#: per position.  Pairs with a longer operand are scored one at a time.
MASK_BITS = 64

_ONE = np.uint64(1)

#: ``_BANDS[i, window]``: the positions ``j`` with ``|i - j| <=
#: window`` as a mask.  A string of at most :data:`MASK_BITS` characters
#: has a match window below ``MASK_BITS // 2``.
_BANDS = np.array(
    [
        [
            (1 << min(i + window + 1, MASK_BITS)) - (1 << max(i - window, 0))
            for window in range(MASK_BITS // 2)
        ]
        for i in range(MASK_BITS)
    ],
    dtype=np.uint64,
)


def coded_masks(
    strings: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lengths, text, masks)`` of distinct strings of at most
    :data:`MASK_BITS` characters.

    The characters are indexed by the strings' own alphabet, in one
    encode of the concatenation: ``text[i, s]`` is the index of
    character ``i`` of string ``s``, with the alphabet's size past the
    end of the string, and ``masks[s, c]`` has bit ``j`` set where
    string ``s`` holds character ``c`` at position ``j`` (its column for
    the past-the-end index is 0).
    """
    count = len(strings)
    lengths = np.fromiter(map(len, strings), dtype=np.int64, count=count)
    flat = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    alphabet = np.unique(flat)
    chars = np.searchsorted(alphabet, flat)
    absent = len(alphabet)
    row_of = np.repeat(np.arange(count), lengths)
    positions = np.arange(flat.size) - (np.cumsum(lengths) - lengths)[row_of]
    text = np.full(
        (max(int(lengths.max(initial=0)), 1), count), absent, dtype=np.intp
    )
    text[positions, row_of] = chars
    # Each (string, position) sets its own bit: adding is or-ing.
    masks = np.zeros((count, absent + 1), dtype=np.uint64)
    np.add.at(
        masks.reshape(-1),
        row_of * (absent + 1) + chars,
        _ONE << positions.astype(np.uint64),
    )
    return lengths, text, masks


def _jaro_winkler_scan(
    strings: Sequence[str],
    left_rows: np.ndarray,
    right_rows: np.ndarray,
    prefix_scale: float,
    max_prefix: int,
    min_similarity: float,
) -> np.ndarray:
    """Jaro–Winkler of the pairs ``strings[left_rows[k]],
    strings[right_rows[k]]`` of distinct short strings.

    Every step is the scalar :func:`jaro_winkler_similarity` applied to
    all pairs at once, with the same operand order in each float
    operation, so each result is bitwise the scalar one:

    * the greedy match scan runs once per left position: the candidates
      are the right string's mask of the left character, inside the
      window and still free, and the lowest one is taken;
    * a second pass over the same masks pairs each matched left
      position, in order, with the lowest right-matched bit not yet
      paired; the pairs whose bit is not the left character's are the
      transpositions;
    * with a positive *min_similarity* the upper bound of
      :func:`jaro_winkler_upper_bound` is evaluated first and pairs it
      proves below the floor read 0.0 without joining the scan.
    """
    lengths, text, masks = coded_masks(strings)
    left_len = lengths[left_rows]
    right_len = lengths[right_rows]
    shortest = np.minimum(left_len, right_len)
    # Winkler's common prefix, capped at max_prefix.  Distinct strings
    # differ at or before the shorter one's end (past it, one side
    # reads the past-the-end index and the other a character).
    head = text[:max_prefix]
    left_head = np.take(head, left_rows, axis=1)
    right_head = np.take(head, right_rows, axis=1)
    prefix = np.zeros(len(left_rows), dtype=np.int64)
    alive = np.ones(len(left_rows), dtype=bool)
    for left_char, right_char in zip(left_head, right_head):
        alive &= left_char == right_char
        prefix += alive
    equal = left_rows == right_rows
    scan = ~equal & (shortest > 0)
    if min_similarity > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (shortest / left_len + shortest / right_len + 1.0) / 3.0
            bound = bound + prefix * prefix_scale * (1.0 - bound)
        bound = np.minimum(np.maximum(bound, 0.0), 1.0)
        scan &= ~(bound < min_similarity)
    result = np.zeros(len(left_rows), dtype=np.float64)
    result[equal] = 1.0
    # Longest left strings first: position i scans only the pairs
    # whose left string reaches it, a prefix of the order.
    pairs = np.flatnonzero(scan)
    pairs = pairs[np.argsort(-left_len[pairs], kind="stable")]
    left_len = left_len[pairs]
    right_len = right_len[pairs]
    width = int(left_len.max(initial=0))
    live = np.searchsorted(-left_len, -np.arange(width))
    window = np.maximum(np.maximum(left_len, right_len) // 2 - 1, 0)
    # candidates[i, k]: the right string's mask of pair k's left
    # character i (0 past the left string's end).
    cells = np.take(text[:width], left_rows[pairs], axis=1)
    cells += right_rows[pairs] * masks.shape[1]
    candidates = np.take(masks, cells)
    del cells
    # taken[i, k]: whether pair k's left character i matched.
    taken = np.zeros((width, len(pairs)), dtype=bool)
    free = np.full(len(pairs), ~np.uint64(0))
    for i in range(width):
        stop = live[i]
        bit = np.take(_BANDS[i], window[:stop])
        bit &= candidates[i, :stop]
        bit &= free[:stop]
        bit &= -bit
        free[:stop] ^= bit
        np.not_equal(bit, 0, out=taken[i, :stop])
    matched = ~free
    matches = np.bitwise_count(matched).astype(np.int64)
    # Pair the matched left characters, in order, with the matched
    # right bits, lowest first; in order means the same character.
    in_order = np.zeros(len(pairs), dtype=np.uint64)
    for i in range(width):
        stop = live[i]
        rest = matched[:stop]
        bit = rest & -rest
        bit *= taken[i, :stop]
        rest ^= bit
        in_order[:stop] |= candidates[i, :stop] & bit
    transpositions = (matches - np.bitwise_count(in_order)) // 2
    # With no match, every term is 0 (and so is Winkler's prefix).
    jaro = (
        matches / left_len
        + matches / right_len
        + (matches - transpositions) / np.maximum(matches, 1)
    ) / 3.0
    similarity = jaro + prefix[pairs] * prefix_scale * (1.0 - jaro)
    result[pairs] = np.minimum(np.maximum(similarity, 0.0), 1.0)
    return result


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
    elements[rights[i]]``, as float64, bit-parallel.

    Bitwise equal, pair by pair, to :class:`BoundedJaroWinkler` with
    the same parameters (so to :func:`jaro_winkler_similarity` when
    *min_similarity* is 0).  Each distinct ``str`` of the elements the
    codes name is encoded once (:func:`coded_masks`), so codes of equal
    strings score 1.0; a pair with an operand longer than
    :data:`MASK_BITS` characters is scored alone by the scalar
    comparator.

    >>> names = ["martha", "marhta", "dwayne", "duane"]
    >>> scores = coded_jaro_winkler_similarities(
    ...     names, np.array([0, 2]), np.array([1, 3])
    ... )
    >>> [round(score, 4) for score in scores.tolist()]
    [0.9611, 0.84]
    >>> scores.tolist() == [
    ...     jaro_winkler_similarity("martha", "marhta"),
    ...     jaro_winkler_similarity("dwayne", "duane"),
    ... ]
    True
    """
    prefix_scale, max_prefix = _checked_prefix(prefix_scale, max_prefix)
    count = len(lefts)
    used, inverse = np.unique(
        np.concatenate((lefts, rights)).astype(np.int64), return_inverse=True
    )
    rows: dict[str, int] = {}
    row_of = np.fromiter(
        (
            rows.setdefault(str(elements[code]), len(rows))
            for code in used.tolist()
        ),
        dtype=np.int64,
        count=len(used),
    )
    left_rows = row_of[inverse[:count]]
    right_rows = row_of[inverse[count:]]
    strings = list(rows)
    # Strings too long for one mask are encoded empty, so no scanned
    # pair names them: their pairs are scored alone.
    long = np.array([len(string) > MASK_BITS for string in strings], bool)
    result = _jaro_winkler_scan(
        [
            "" if too_long else string
            for string, too_long in zip(strings, long.tolist())
        ],
        left_rows,
        right_rows,
        prefix_scale,
        max_prefix,
        min_similarity,
    )
    alone = np.flatnonzero(long[left_rows] | long[right_rows])
    if len(alone):
        scalar = BoundedJaroWinkler(
            min_similarity=min_similarity,
            prefix_scale=prefix_scale,
            max_prefix=max_prefix,
        )
        result[alone] = [
            scalar(strings[left], strings[right])
            for left, right in zip(
                left_rows[alone].tolist(), right_rows[alone].tolist()
            )
        ]
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
        self._scale, self._max_prefix = _checked_prefix(
            prefix_scale, max_prefix
        )

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
