"""The fast edit kernels behind ``kernel_backend="fast"``.

:mod:`repro.similarity.backends.bitparallel` holds the Myers
bit-parallel per-pair kernels, pinned bitwise to the reference banded
DPs of :mod:`repro.similarity.kernels`, which also maps the two kernel
names (``"fast"``, ``"python"``) to their functions.  Both kernels
score one pair per call; there is no batch edit scorer.
"""

from repro.similarity.backends.bitparallel import (
    bitparallel_damerau_levenshtein,
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein,
    bitparallel_levenshtein_similarity,
)

__all__ = [
    "bitparallel_damerau_levenshtein",
    "bitparallel_damerau_levenshtein_similarity",
    "bitparallel_levenshtein",
    "bitparallel_levenshtein_similarity",
]
