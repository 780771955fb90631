"""Vectorized batch edit-distance scoring over numpy arrays.

The batched decide hands the cache *batches* of missed value pairs
(:meth:`repro.similarity.kernels.SimilarityCache.lookup_codes`), and
per-pair kernels leave almost all of that batch structure on the table:
every pair pays the full Python interpreter overhead.  This module is
the columnar alternative the "massive probabilistic databases" line of
work motivates — encode every distinct string *once* into a packed
``uint32`` codepoint array, group the batch by operand shape, and
advance the edit DP for the whole group at once with ``O(len)`` numpy
row operations instead of ``O(len²)`` interpreted cell updates.

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

import numpy as _np

from repro.similarity.base import as_strings, similarity_from_distance


def _encode(string: str) -> "Any":
    """A string as a packed ``uint32`` codepoint array."""
    return _np.frombuffer(string.encode("utf-32-le"), dtype=_np.uint32)


def _group_distances(
    lefts: Sequence[Any], rights: Sequence[Any], *, damerau: bool
) -> "Any":
    """Edit distances for one shape group (all ``len(a) × len(b)`` equal).

    *lefts* / *rights* are equal-shape codepoint arrays with
    ``len(left) ≥ len(right)``; returns an int64 vector of exact
    distances.  Row ``i`` of the DP is computed for the whole batch at
    once; the insertion chain is resolved with the min-plus prefix scan
    described in the module docstring.
    """
    batch = len(lefts)
    la = len(lefts[0])
    lb = len(rights[0])
    if lb == 0:
        return _np.full(batch, la, dtype=_np.int64)
    left = _np.stack(lefts)
    right = _np.stack(rights)
    columns = _np.arange(lb + 1, dtype=_np.int64)
    previous = _np.broadcast_to(columns, (batch, lb + 1)).copy()
    before_previous = None
    candidate = _np.empty((batch, lb + 1), dtype=_np.int64)
    spare = _np.empty((batch, lb + 1), dtype=_np.int64) if damerau else None
    for i in range(1, la + 1):
        mismatch = left[:, i - 1 : i] != right
        candidate[:, 0] = i
        _np.minimum(
            previous[:, 1:] + 1,
            previous[:, :-1] + mismatch,
            out=candidate[:, 1:],
        )
        if damerau and i >= 2 and lb >= 2:
            transposable = (left[:, i - 1 : i] == right[:, :-1]) & (
                left[:, i - 2 : i - 1] == right[:, 1:]
            )
            _np.copyto(
                candidate[:, 2:],
                _np.minimum(
                    candidate[:, 2:], before_previous[:, :-2] + 1
                ),
                where=transposable,
            )
        # Min-plus prefix scan folds the left-neighbour insertion chain.
        candidate -= columns
        _np.minimum.accumulate(candidate, axis=1, out=candidate)
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


def batch_edit_distances(
    pairs: Sequence[tuple[str, str]], *, damerau: bool = False
) -> list[int]:
    """Exact edit distances for a batch of string pairs.

    Encodes each distinct string once, groups pairs by operand shape
    (order-normalized — both distances are symmetric), and runs one
    vectorized DP per group.  Matches the reference DPs exactly.
    """
    encoded: dict[str, Any] = {}
    groups: dict[tuple[int, int], list[tuple[int, str, str]]] = {}
    results: list[int] = [0] * len(pairs)
    for index, (left, right) in enumerate(pairs):
        if left == right:
            continue
        if len(left) < len(right):
            left, right = right, left
        groups.setdefault((len(left), len(right)), []).append(
            (index, left, right)
        )
    for (la, lb), members in groups.items():
        if lb == 0:
            for index, _, _ in members:
                results[index] = la
            continue
        lefts = []
        rights = []
        for _, left, right in members:
            code = encoded.get(left)
            if code is None:
                code = encoded[left] = _encode(left)
            lefts.append(code)
            code = encoded.get(right)
            if code is None:
                code = encoded[right] = _encode(right)
            rights.append(code)
        distances = _group_distances(lefts, rights, damerau=damerau)
        for (index, _, _), distance in zip(members, distances):
            results[index] = int(distance)
    return results


def _batch_similarities(
    pairs: Sequence[tuple[Any, Any]],
    *,
    damerau: bool,
    min_similarity: float = 0.0,
) -> list[float]:
    """Batch counterpart of the banded similarity wrappers.

    Computes exact distances vectorized, then applies the identical
    post-hoc cutoff: with the one-row slack ``cutoff = int((1 -
    min_similarity) * longest) + 1``, a distance beyond the cutoff reads
    0.0, anything else the exact normalized similarity — bitwise what
    the per-pair kernels return.
    """
    string_pairs = [as_strings(left, right) for left, right in pairs]
    distances = batch_edit_distances(string_pairs, damerau=damerau)
    results: list[float] = []
    for (left_str, right_str), distance in zip(string_pairs, distances):
        longest = max(len(left_str), len(right_str))
        if longest == 0:
            results.append(1.0)
            continue
        cutoff = int((1.0 - min_similarity) * longest) + 1
        if distance > cutoff:
            results.append(0.0)
        else:
            results.append(similarity_from_distance(distance, longest))
    return results


def batch_levenshtein_similarities(
    pairs: Sequence[tuple[Any, Any]], *, min_similarity: float = 0.0
) -> list[float]:
    """Vectorized :func:`bitparallel_levenshtein_similarity` over a batch."""
    return _batch_similarities(
        pairs, damerau=False, min_similarity=min_similarity
    )


def batch_damerau_levenshtein_similarities(
    pairs: Sequence[tuple[Any, Any]], *, min_similarity: float = 0.0
) -> list[float]:
    """Vectorized Damerau variant of the batch scorer."""
    return _batch_similarities(
        pairs, damerau=True, min_similarity=min_similarity
    )

