"""Probabilistic database substrate.

Implements the data models the paper operates on:

* attribute-value-level uncertainty — :class:`ProbabilisticValue`,
  the ⊥ non-existence marker :data:`NULL`, pattern values (``mu*``);
* tuple-level uncertainty — :class:`ProbabilisticTuple` (independence
  model, Section IV-A) and :class:`XTuple` / :class:`TupleAlternative`
  (ULDB x-tuple model, Section IV-B);
* relations — :class:`ProbabilisticRelation`, :class:`XRelation`,
  :class:`Schema`;
* possible-world semantics — enumeration, sampling, conditioning;
* ranking by uncertain keys (Section V-A.4);
* storage backends — the :class:`XTupleStore` protocol with the
  in-memory :class:`XRelation` and the out-of-core
  :class:`ColumnarXTupleStore` (:mod:`repro.pdb.storage`).
"""

from repro.pdb.conditioning import (
    condition_on_presence,
    condition_worlds,
    presence_probability,
)
from repro.pdb.errors import (
    ConditioningError,
    DuplicateTupleIdError,
    EmptyDistributionError,
    InvalidProbabilityError,
    ProbabilisticDataError,
    SchemaMismatchError,
    UnknownAttributeError,
    WorldEnumerationError,
)
from repro.pdb.lineage import (
    Lineage,
    LineageAtom,
    mutually_exclusive,
)
from repro.pdb.ranking import (
    RANKING_FUNCTIONS,
    expected_rank_order,
    most_probable_key_order,
    prf_e_order,
)
from repro.pdb.relations import ProbabilisticRelation, Schema, XRelation
from repro.pdb.storage import (
    ColumnarXTupleStore,
    StorageError,
    XTupleStore,
    fetch_tuples,
    spill_relation,
)
from repro.pdb.tuples import ProbabilisticTuple, has_null_support
from repro.pdb.values import (
    NULL,
    PROBABILITY_TOLERANCE,
    PatternValue,
    ProbabilisticValue,
)
from repro.pdb.worlds import (
    DEFAULT_MAX_WORLDS,
    PossibleWorld,
    enumerate_full_worlds,
    enumerate_worlds,
    most_probable_world,
    sample_world,
    value_in_world,
    world_count,
    world_overlap,
)
from repro.pdb.xtuples import TupleAlternative, XTuple

__all__ = [
    "NULL",
    "PROBABILITY_TOLERANCE",
    "DEFAULT_MAX_WORLDS",
    "RANKING_FUNCTIONS",
    "ColumnarXTupleStore",
    "ConditioningError",
    "DuplicateTupleIdError",
    "EmptyDistributionError",
    "InvalidProbabilityError",
    "Lineage",
    "LineageAtom",
    "PatternValue",
    "PossibleWorld",
    "ProbabilisticDataError",
    "ProbabilisticRelation",
    "ProbabilisticTuple",
    "ProbabilisticValue",
    "Schema",
    "SchemaMismatchError",
    "StorageError",
    "TupleAlternative",
    "UnknownAttributeError",
    "WorldEnumerationError",
    "XRelation",
    "XTuple",
    "XTupleStore",
    "condition_on_presence",
    "condition_worlds",
    "enumerate_full_worlds",
    "enumerate_worlds",
    "expected_rank_order",
    "fetch_tuples",
    "has_null_support",
    "most_probable_key_order",
    "most_probable_world",
    "mutually_exclusive",
    "prf_e_order",
    "presence_probability",
    "sample_world",
    "spill_relation",
    "value_in_world",
    "world_count",
    "world_overlap",
]
