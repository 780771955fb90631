"""Search-space reduction adapted to probabilistic data (Section V).

Sorted-Neighborhood family (Section V-A):

* :class:`SortedNeighborhood` — classic SNM over certain(ized) keys;
* :class:`MultiPassSNM` — one pass per (selected) possible world
  (V-A.1), with world selection in :mod:`~repro.reduction.world_selection`;
* certain keys by conflict resolution (V-A.2) — the default
  ``key_strategy`` of :class:`SortedNeighborhood`
  (:func:`~repro.reduction.keys.most_probable_key`);
* :class:`AlternativeSorting` — sorting alternatives with neighbor dedup
  and the Figure-12 matching matrix (V-A.3);
* :class:`UncertainKeySNM` — ranking-based SNM on uncertain keys (V-A.4).

Blocking family (Section V-B):

* :class:`CertainKeyBlocking`, :class:`AlternativeKeyBlocking`
  (Figure 14), :class:`MultiPassBlocking`,
  :class:`UncertainKeyClusteringBlocking` (clustering of uncertain keys).

All strategies implement the ``pairs(relation)`` protocol of
:class:`repro.matching.pipeline.PairGenerator` and can be plugged into
:class:`repro.matching.DuplicateDetector` directly.  Every strategy also
implements ``plan(relation)`` (:mod:`repro.reduction.plan`), exposing its
block/window structure as a :class:`~repro.reduction.plan.CandidatePlan`
of schedulable partitions — the input of the detector's execution
engine and of incremental session refreshes.
"""

from repro.reduction.alternatives import AlternativeSorting, MatchingMatrix
from repro.reduction.derived_keys import (
    DerivedKey,
    PhoneticBlocking,
    derived_most_probable_key,
    derived_xtuple_key_distribution,
    phonetic_key,
    prefix_transform,
    soundex_transform,
)
from repro.reduction.blocking import (
    AlternativeKeyBlocking,
    CertainKeyBlocking,
    MultiPassBlocking,
    pairs_from_blocks,
)
from repro.reduction.keys import (
    KeyFunction,
    SubstringKey,
    alternative_key_distribution,
    expand_pattern_keys,
    keys_of_world_assignment,
    most_probable_key,
    xtuple_key_distribution,
)
from repro.reduction.multipass import MultiPassSNM, WorldSelection
from repro.reduction.plan import (
    DEFAULT_PARTITION_PAIRS,
    CandidatePartition,
    CandidatePlan,
    PlanBuilder,
    PlanningReducer,
    add_window_spans,
    delta_plan,
    members_of_pairs,
    ordered_pair,
    partition_fingerprint,
    plan_candidates,
    plan_fingerprints,
    plan_from_blocks,
    plan_from_window,
    tuple_fingerprint,
    tuple_keys,
)
from repro.reduction.snm import (
    SortedNeighborhood,
    sort_by_key,
    window_pairs,
)
from repro.reduction.uncertain_clustering import (
    UncertainKeyClusteringBlocking,
    expected_key_distance,
    normalized_key_distance,
)
from repro.reduction.uncertain_keys import UncertainKeySNM
from repro.reduction.world_selection import (
    average_pairwise_overlap,
    select_diverse_worlds,
    select_probable_worlds,
)

__all__ = [
    "AlternativeKeyBlocking",
    "AlternativeSorting",
    "CandidatePartition",
    "CandidatePlan",
    "CertainKeyBlocking",
    "DEFAULT_PARTITION_PAIRS",
    "DerivedKey",
    "KeyFunction",
    "PhoneticBlocking",
    "MatchingMatrix",
    "MultiPassBlocking",
    "MultiPassSNM",
    "PlanBuilder",
    "PlanningReducer",
    "SortedNeighborhood",
    "SubstringKey",
    "UncertainKeyClusteringBlocking",
    "UncertainKeySNM",
    "WorldSelection",
    "add_window_spans",
    "delta_plan",
    "alternative_key_distribution",
    "average_pairwise_overlap",
    "derived_most_probable_key",
    "derived_xtuple_key_distribution",
    "expand_pattern_keys",
    "expected_key_distance",
    "keys_of_world_assignment",
    "members_of_pairs",
    "most_probable_key",
    "normalized_key_distance",
    "ordered_pair",
    "partition_fingerprint",
    "plan_fingerprints",
    "pairs_from_blocks",
    "phonetic_key",
    "plan_candidates",
    "plan_from_blocks",
    "plan_from_window",
    "prefix_transform",
    "tuple_fingerprint",
    "tuple_keys",
    "select_diverse_worlds",
    "select_probable_worlds",
    "sort_by_key",
    "soundex_transform",
    "window_pairs",
    "xtuple_key_distribution",
]
