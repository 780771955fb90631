"""Threshold pushdown: derivation-aware ``min_similarity`` floors.

The paper's decision models only *act* on similarity degrees through
their classifier thresholds (T_λ/T_μ of Figure 2), yet attribute value
matching computes every similarity exactly.  This module inverts the
decision layer: it asks a model for the **weakest per-attribute
similarity that could still influence any matching decision** and packs
the answer into a :class:`SimilarityFloors` object the pipeline pushes
down — through :meth:`repro.matching.comparison.AttributeMatcher.configured`
and :meth:`repro.similarity.uncertain.UncertainValueComparator.configured`
— into the banded kernels of :mod:`repro.similarity.kernels`, which may
then stop computing as soon as a similarity provably falls below its
floor.

Why this is *exact* for the supported models
--------------------------------------------

The implemented decision models consume attribute similarities only
through step functions:

* a rule condition fires iff ``c_a > t`` (Figure 1), so every value of
  ``c_a`` below the weakest condition threshold on attribute *a* yields
  the same rule outcome — and therefore bitwise the same combined
  certainty;
* Fellegi–Sunter (and its EM-estimated variant) reduces ``c_a`` to the
  agreement bit ``γ_a = [c_a ≥ agreement_threshold]`` before Equations
  1–2, so every value below the agreement threshold yields bitwise the
  same matching weight ``R``.

Below those step points the *exact* similarity value is unobservable:
replacing it with 0.0 (the banded kernels' "below cutoff" answer)
changes no comparison vector consumer's output bit.  Because the
Figure-6 derivation functions ϑ (Equations 6–9, the expected matching
result — everything in :data:`repro.matching.derivation.DERIVATIONS`)
see alternative pairs only through those per-cell model outputs
(:class:`~repro.matching.derivation.DerivationInput` carries per-pair
similarities, statuses and weights, never raw comparison vectors), the
invariance survives both derivation variants and any final T_λ/T_μ
classification unchanged — pruned and exact detection agree bitwise on
*every* pair, accepted or not, which is stronger than the
accepted-pairs guarantee the golden suite
(``tests/test_threshold_pushdown.py``) pins.

:func:`derive_floors` is the entry point: it performs that inversion
for a concrete (model, derivation ϑ, final classifier) configuration
and returns ``None`` whenever safety cannot be proven (e.g. a
``WeightedSum`` combiner, whose output varies continuously with every
attribute), in which case the pipeline silently keeps the exact path.

>>> from repro.matching.decision.rules import (
...     IdentificationRule, RuleBasedModel,
... )
>>> from repro.matching.decision.base import ThresholdClassifier
>>> model = RuleBasedModel(
...     [IdentificationRule.build(
...         [("name", 0.8), ("job", 0.5)], certainty=0.8
...     )],
...     ThresholdClassifier(0.7),
... )
>>> floors = derive_floors(model)
>>> floors.floor("name"), floors.floor("job")
(0.8, 0.5)
>>> floors.floor("salary")  # never conditioned: value is unobservable
1.0
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SimilarityFloors:
    """Per-attribute similarity floors for the pushdown path.

    Attributes
    ----------
    per_attribute:
        ``{attribute: floor}`` — attribute similarities strictly below
        their floor may be answered as 0.0 ("below cutoff") instead of
        exactly; similarities at or above the floor must stay exact.
    default:
        Floor for attributes not listed in :attr:`per_attribute`.  A
        rules model sets this to 1.0 (an attribute no rule conditions
        on is unobservable), Fellegi–Sunter to its agreement threshold.
    """

    per_attribute: Mapping[str, float] = field(default_factory=dict)
    default: float = 0.0

    def __post_init__(self) -> None:
        cleaned = {}
        for attribute, floor in dict(self.per_attribute).items():
            floor = float(floor)
            if not 0.0 <= floor <= 1.0:
                raise ValueError(
                    f"floor of {attribute!r} outside [0, 1]: {floor}"
                )
            cleaned[str(attribute)] = floor
        object.__setattr__(self, "per_attribute", cleaned)
        default = float(self.default)
        if not 0.0 <= default <= 1.0:
            raise ValueError(f"default floor outside [0, 1]: {default}")
        object.__setattr__(self, "default", default)

    @classmethod
    def uniform(cls, floor: float) -> "SimilarityFloors":
        """The same floor for every attribute."""
        return cls({}, default=floor)

    def floor(self, attribute: str) -> float:
        """The floor in force for *attribute*."""
        return self.per_attribute.get(attribute, self.default)

    @property
    def is_exact(self) -> bool:
        """Whether every floor is 0 (pruning would never engage)."""
        return self.default == 0.0 and not any(
            floor > 0.0 for floor in self.per_attribute.values()
        )

    def signature(self) -> tuple:
        """Hashable identity, for memoizing pruned pipeline clones."""
        return (
            tuple(sorted(self.per_attribute.items())),
            self.default,
        )

    def __repr__(self) -> str:
        listed = ", ".join(
            f"{attribute}≥{floor:g}"
            for attribute, floor in sorted(self.per_attribute.items())
        )
        return (
            f"SimilarityFloors({listed or '—'}, default={self.default:g})"
        )


def derive_floors(
    model, derivation=None, classifier=None
) -> SimilarityFloors | None:
    """Invert a decision configuration into safe pushdown floors.

    Parameters
    ----------
    model:
        The per-alternative decision model (step 1 of Figure 6).  Must
        expose ``attribute_floors()`` — implemented by
        :class:`~repro.matching.decision.rules.RuleBasedModel`,
        :class:`~repro.matching.decision.fellegi_sunter.FellegiSunterModel`
        (hence EM-estimated models via
        :meth:`~repro.matching.decision.em.EMEstimate.to_model`) and
        :class:`~repro.matching.decision.base.CombinedDecisionModel`
        over a step-function combiner such as
        :class:`~repro.matching.combination.LogLikelihoodRatio`.
    derivation:
        The ϑ of the x-tuple procedure, when one is configured.  Floors
        are φ-level invariance points, so they are valid for exactly
        those derivations that consume alternative pairs through the
        per-cell model outputs — i.e. through
        :class:`~repro.matching.derivation.DerivationInput`.  Every
        registered derivation (Equations 6–9 and friends) does, which
        is recognized by the protocol's ``requires_statuses`` flag; a
        custom ϑ without the flag cannot be proven safe and disables
        pruning.
    classifier:
        The final T_λ/T_μ classifier (step 3).  Classification consumes
        only the derived similarity, which the floors already hold
        invariant, so its thresholds never *weaken* a floor; it is
        accepted here so callers can pass the whole configuration and
        future models may derive genuinely threshold-dependent cutoffs.

    Returns
    -------
    SimilarityFloors | None
        The safe floors, or ``None`` when pruning must stay off (model
        without ``attribute_floors``, a non-step combiner, or an
        unrecognized derivation function).
    """
    supplier = getattr(model, "attribute_floors", None)
    if not callable(supplier):
        return None
    if derivation is not None and not hasattr(
        derivation, "requires_statuses"
    ):
        # Not a DerivationFunction: we cannot know what it reads, so we
        # cannot prove the φ-level invariance reaches its output.
        return None
    floors = supplier()
    if floors is None:
        return None
    if not isinstance(floors, SimilarityFloors):
        raise TypeError(
            f"{model!r}.attribute_floors() returned "
            f"{type(floors).__name__}, expected SimilarityFloors or None"
        )
    if floors.is_exact:
        return None
    return floors
