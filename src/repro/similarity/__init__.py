"""Comparison functions: syntactic, semantic, and probabilistic lifts.

The package mirrors Section III-C (attribute value matching) and
Section IV-A (matching of uncertain attribute values):

* certain-value comparators — :mod:`repro.similarity.hamming` (the
  paper's running example), :mod:`repro.similarity.edit`,
  :mod:`repro.similarity.jaro`, :mod:`repro.similarity.ngram`,
  :mod:`repro.similarity.basic`, :mod:`repro.similarity.semantic`;
* the probabilistic lift — :mod:`repro.similarity.uncertain`
  (Equations 4 and 5 with ⊥ and pattern-value semantics);
* two per-pair edit kernels — ``"python"``, the banded reference DPs
  of :mod:`repro.similarity.kernels`, and ``"fast"``, the Myers
  bit-parallel kernels of :mod:`repro.similarity.backends`, pinned
  bitwise to the reference.
"""

from repro.similarity.backends import (
    bitparallel_damerau_levenshtein,
    bitparallel_damerau_levenshtein_similarity,
    bitparallel_levenshtein,
    bitparallel_levenshtein_similarity,
)
from repro.similarity.base import (
    Comparator,
    NamedComparator,
    as_strings,
    checked,
    clamp01,
    similarity_from_distance,
    symmetrized,
    weighted_mean,
)
from repro.similarity.basic import (
    EXACT,
    NUMERIC,
    RELATIVE_NUMERIC,
    TOKEN_JACCARD,
    exact_similarity,
    numeric_similarity,
    relative_numeric_similarity,
    token_jaccard_similarity,
)
from repro.similarity.edit import (
    DAMERAU_LEVENSHTEIN,
    LEVENSHTEIN,
    damerau_levenshtein_distance,
    damerau_levenshtein_similarity,
    levenshtein_distance,
    levenshtein_similarity,
)
from repro.similarity.hamming import (
    HAMMING,
    hamming_distance,
    normalized_hamming_similarity,
)
from repro.similarity.jaro import (
    FAST_JARO_WINKLER,
    JARO,
    JARO_WINKLER,
    BoundedJaroWinkler,
    jaro_similarity,
    jaro_winkler_similarity,
    jaro_winkler_upper_bound,
)
from repro.similarity.kernels import (
    FAST_DAMERAU_LEVENSHTEIN,
    FAST_LEVENSHTEIN,
    BandedEditComparator,
    SimilarityCache,
    banded_damerau_levenshtein,
    banded_damerau_levenshtein_similarity,
    banded_levenshtein,
    banded_levenshtein_similarity,
)
from repro.similarity.ngram import (
    BIGRAM,
    JACCARD_BIGRAM,
    TRIGRAM,
    bigram_similarity,
    jaccard_qgram_similarity,
    qgram_similarity,
    qgrams,
    trigram_similarity,
)
from repro.similarity.phonetic import (
    NYSIIS,
    SOUNDEX,
    SOUNDEX_LEVENSHTEIN,
    nysiis,
    nysiis_similarity,
    phonetic_backoff,
    soundex,
    soundex_similarity,
)
from repro.similarity.semantic import Glossary
from repro.similarity.uncertain import (
    EQUALITY_PROBABILITY,
    PatternPolicy,
    UncertainValueComparator,
    equality_probability,
    expected_similarity,
)

#: Registry of the certain-value comparators by name.
COMPARATORS = {
    comparator.name: comparator
    for comparator in (
        HAMMING,
        LEVENSHTEIN,
        DAMERAU_LEVENSHTEIN,
        FAST_LEVENSHTEIN,
        FAST_DAMERAU_LEVENSHTEIN,
        JARO,
        JARO_WINKLER,
        FAST_JARO_WINKLER,
        BIGRAM,
        TRIGRAM,
        JACCARD_BIGRAM,
        EXACT,
        NUMERIC,
        RELATIVE_NUMERIC,
        TOKEN_JACCARD,
        SOUNDEX,
        NYSIIS,
    )
}

__all__ = [
    "BIGRAM",
    "COMPARATORS",
    "Comparator",
    "DAMERAU_LEVENSHTEIN",
    "EQUALITY_PROBABILITY",
    "EXACT",
    "BandedEditComparator",
    "BoundedJaroWinkler",
    "FAST_DAMERAU_LEVENSHTEIN",
    "FAST_JARO_WINKLER",
    "FAST_LEVENSHTEIN",
    "Glossary",
    "HAMMING",
    "JACCARD_BIGRAM",
    "JARO",
    "JARO_WINKLER",
    "LEVENSHTEIN",
    "NUMERIC",
    "NYSIIS",
    "NamedComparator",
    "PatternPolicy",
    "RELATIVE_NUMERIC",
    "SOUNDEX",
    "SOUNDEX_LEVENSHTEIN",
    "SimilarityCache",
    "TOKEN_JACCARD",
    "TRIGRAM",
    "UncertainValueComparator",
    "as_strings",
    "banded_damerau_levenshtein",
    "banded_damerau_levenshtein_similarity",
    "banded_levenshtein",
    "banded_levenshtein_similarity",
    "bigram_similarity",
    "bitparallel_damerau_levenshtein",
    "bitparallel_damerau_levenshtein_similarity",
    "bitparallel_levenshtein",
    "bitparallel_levenshtein_similarity",
    "checked",
    "clamp01",
    "damerau_levenshtein_distance",
    "damerau_levenshtein_similarity",
    "equality_probability",
    "exact_similarity",
    "expected_similarity",
    "hamming_distance",
    "jaccard_qgram_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "jaro_winkler_upper_bound",
    "levenshtein_distance",
    "levenshtein_similarity",
    "normalized_hamming_similarity",
    "numeric_similarity",
    "nysiis",
    "nysiis_similarity",
    "phonetic_backoff",
    "soundex",
    "soundex_similarity",
    "qgram_similarity",
    "qgrams",
    "relative_numeric_similarity",
    "similarity_from_distance",
    "symmetrized",
    "token_jaccard_similarity",
    "trigram_similarity",
    "weighted_mean",
]
