"""Vectorized batch edit-distance scoring over numpy arrays.

The batched decide hands the cache's distinct misses to the scorer as
integer codes into an element list
(:meth:`repro.similarity.kernels.SimilarityCache.lookup_codes` →
:func:`repro.similarity.kernels.score_codes`), and per-pair kernels
leave almost all of that batch structure on the table: every pair pays
the full Python interpreter overhead.  This module is the columnar
alternative the "massive probabilistic databases" line of work
motivates — encode every element a batch names *once*, by its code,
into a padded ``uint32`` codepoint row (:func:`coded_rows`, shared
with the numpy Jaro–Winkler scorer), group the pairs by operand shape,
and advance the edit DP for the whole group at once with ``O(len)``
numpy row operations instead of ``O(len²)`` interpreted cell updates.

The serial dependency inside a DP row (each cell's insertion candidate
depends on its left neighbour) is handled with the classic min-plus
prefix scan: subtract the column index, take a running minimum, add the
column index back — ``current[j] = min_{i ≤ j}(candidate[i] + (j - i))``
in three vector operations.

Distances are exact integers, so the similarity wrappers reproduce the
banded kernels' results bit for bit (the ``min_similarity`` cutoff is
applied to the exact distance with the same one-row slack formula).

Per-pair calls of the ``"fast"`` kernel go to
:mod:`repro.similarity.backends.bitparallel` instead — the batch path
only pays off when amortized over many pairs.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

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


def _group_distances(
    left: np.ndarray, right: np.ndarray, *, damerau: bool
) -> np.ndarray:
    """Edit distances for one shape group (all ``len(a) × len(b)`` equal).

    *left* / *right* hold one codepoint row per pair, unpadded, with
    ``len(left) ≥ len(right) > 0``; returns an int64 vector of exact
    distances.  Row ``i`` of the DP is computed for the whole batch at
    once; the insertion chain is resolved with the min-plus prefix scan
    described in the module docstring.
    """
    batch, la = left.shape
    lb = right.shape[1]
    columns = np.arange(lb + 1, dtype=np.int64)
    previous = np.broadcast_to(columns, (batch, lb + 1)).copy()
    before_previous = None
    candidate = np.empty((batch, lb + 1), dtype=np.int64)
    spare = np.empty((batch, lb + 1), dtype=np.int64) if damerau else None
    for i in range(1, la + 1):
        mismatch = left[:, i - 1 : i] != right
        candidate[:, 0] = i
        np.minimum(
            previous[:, 1:] + 1,
            previous[:, :-1] + mismatch,
            out=candidate[:, 1:],
        )
        if damerau and i >= 2 and lb >= 2:
            transposable = (left[:, i - 1 : i] == right[:, :-1]) & (
                left[:, i - 2 : i - 1] == right[:, 1:]
            )
            np.copyto(
                candidate[:, 2:],
                np.minimum(
                    candidate[:, 2:], before_previous[:, :-2] + 1
                ),
                where=transposable,
            )
        # Min-plus prefix scan folds the left-neighbour insertion chain.
        candidate -= columns
        np.minimum.accumulate(candidate, axis=1, out=candidate)
        candidate += columns
        if damerau:
            # Three-buffer rotation: the old row i-2 buffer is free to
            # host the next row's scratch once i-1 takes its place.
            recycled = spare if before_previous is None else before_previous
            before_previous, previous, candidate = (
                previous,
                candidate,
                recycled,
            )
        else:
            previous, candidate = candidate, previous
    return previous[:, -1]


def _row_distances(
    rows: np.ndarray,
    lengths: np.ndarray,
    left_rows: np.ndarray,
    right_rows: np.ndarray,
    *,
    damerau: bool,
) -> np.ndarray:
    """Exact edit distances of ``rows[left_rows[i]]`` against
    ``rows[right_rows[i]]``: pairs grouped by operand shape
    (order-normalized — both distances are symmetric), one vectorized
    DP per group."""
    swap = lengths[left_rows] < lengths[right_rows]
    longer = np.where(swap, right_rows, left_rows)
    shorter = np.where(swap, left_rows, right_rows)
    long_len = lengths[longer]
    short_len = lengths[shorter]
    # Against an empty string the distance is the other length; a row
    # against itself is 0.
    distances = np.where(longer == shorter, 0, long_len)
    pending = np.flatnonzero((longer != shorter) & (short_len > 0))
    shapes = long_len[pending] * (int(lengths.max(initial=0)) + 1)
    shapes += short_len[pending]
    order = np.argsort(shapes, kind="stable")
    pending = pending[order]
    bounds = np.flatnonzero(np.diff(shapes[order], prepend=-1, append=-1))
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        group = pending[start:stop]
        la = int(long_len[group[0]])
        lb = int(short_len[group[0]])
        distances[group] = _group_distances(
            rows[longer[group], :la],
            rows[shorter[group], :lb],
            damerau=damerau,
        )
    return distances


def batch_edit_distances(
    elements: Sequence[Any],
    lefts: np.ndarray,
    rights: np.ndarray,
    *,
    damerau: bool = False,
) -> np.ndarray:
    """Exact edit distances of the pairs ``elements[lefts[i]],
    elements[rights[i]]``, as int64.

    Encodes each element the codes name once, groups pairs by operand
    shape and runs one vectorized DP per group.  Matches the reference
    DPs exactly.
    """
    return _row_distances(
        *coded_rows(elements, lefts, rights), damerau=damerau
    )


def _batch_similarities(
    elements: Sequence[Any],
    lefts: np.ndarray,
    rights: np.ndarray,
    *,
    damerau: bool,
    min_similarity: float = 0.0,
) -> np.ndarray:
    """Batch counterpart of the banded similarity wrappers, as float64.

    Computes exact distances vectorized, then applies the identical
    post-hoc cutoff: with the one-row slack ``cutoff = int((1 -
    min_similarity) * longest) + 1``, a distance beyond the cutoff reads
    0.0, anything else the exact normalized similarity — bitwise what
    the per-pair kernels return.
    """
    rows, lengths, left_rows, right_rows = coded_rows(elements, lefts, rights)
    distances = _row_distances(
        rows, lengths, left_rows, right_rows, damerau=damerau
    )
    longest = np.maximum(lengths[left_rows], lengths[right_rows])
    cutoff = ((1.0 - min_similarity) * longest).astype(np.int64) + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        similarities = np.clip(1.0 - distances / longest, 0.0, 1.0)
    similarities[distances > cutoff] = 0.0
    similarities[longest == 0] = 1.0
    return similarities


def batch_levenshtein_similarities(
    elements: Sequence[Any],
    lefts: np.ndarray,
    rights: np.ndarray,
    *,
    min_similarity: float = 0.0,
) -> np.ndarray:
    """Vectorized :func:`bitparallel_levenshtein_similarity` of the
    pairs ``elements[lefts[i]], elements[rights[i]]``."""
    return _batch_similarities(
        elements, lefts, rights, damerau=False, min_similarity=min_similarity
    )


def batch_damerau_levenshtein_similarities(
    elements: Sequence[Any],
    lefts: np.ndarray,
    rights: np.ndarray,
    *,
    min_similarity: float = 0.0,
) -> np.ndarray:
    """Vectorized Damerau variant of the batch scorer."""
    return _batch_similarities(
        elements, lefts, rights, damerau=True, min_similarity=min_similarity
    )
