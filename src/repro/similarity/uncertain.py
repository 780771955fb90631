"""Similarity of *uncertain* attribute values — Equations 4 and 5.

This is the paper's first technical contribution (Section IV-A): lifting
a normalized comparison function on domain elements to probabilistic
values.

* **Error-free data** (Equation 4): similarity is the probability that
  both values are equal, ``sim(a1, a2) = P(a1 = a2)``.
* **Erroneous data** (Equation 5): domain-element similarity is folded
  into the expectation,
  ``sim(a1, a2) = Σ_{d1} Σ_{d2} P(a1=d1, a2=d2) · sim(d1, d2)``.

Non-existence semantics (both equations): ``sim(⊥, ⊥) = 1`` — two
non-existent values refer to the same real-world fact — and
``sim(a, ⊥) = sim(⊥, a) = 0`` for existing ``a``.

Pattern values (``mu*``) are handled either by expansion against a
lexicon (exact, preferred) or by a documented prefix heuristic for
lexicon-free use.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.pdb.values import NULL, PatternValue, ProbabilisticValue
from repro.similarity.base import Comparator, NamedComparator
from repro.similarity.kernels import (
    PAIR_BASE,
    AppendArray,
    SimilarityCache,
    probe,
    score_codes,
    unique_in_order,
)


class PatternPolicy:
    """How to compare :class:`PatternValue` outcomes.

    ``expand``
        Expand patterns against the configured lexicon before comparing
        (exact semantics; requires a lexicon).
    ``prefix``
        Compare the pattern's fixed prefix against the equally long prefix
        of the other operand with the base comparator.  A heuristic for
        lexicon-free operation: it preserves the intuition that ``mu*`` is
        similar to ``musician`` and dissimilar to ``baker``.
    ``strict``
        Raise on any pattern encounter (default — silent guessing is worse
        than a loud error).
    """

    EXPAND = "expand"
    PREFIX = "prefix"
    STRICT = "strict"

    ALL = (EXPAND, PREFIX, STRICT)


def _prefix_pattern_similarity(
    base: Comparator, pattern: PatternValue, other: Any
) -> float:
    """Prefix-heuristic similarity between a pattern and a plain value."""
    if isinstance(other, PatternValue):
        return base(pattern.prefix, other.prefix)
    other_str = str(other)
    prefix = pattern.prefix
    if not pattern.is_wildcard():
        return base(pattern.pattern, other_str)
    return base(prefix, other_str[: len(prefix)])


class UncertainValueComparator:
    """Lift a domain comparator to probabilistic values (Eq. 4 / Eq. 5).

    Parameters
    ----------
    base:
        Normalized comparison function on certain domain elements.  When
        ``None``, exact equality is used and the comparator computes
        Equation 4 (the error-free case) instead of Equation 5.
    pattern_policy:
        One of :class:`PatternPolicy`'s constants.
    pattern_lexicon:
        Lexicon used by the ``expand`` policy.
    cache:
        Optional memoization of domain-element comparisons.  Pass a
        :class:`~repro.similarity.kernels.SimilarityCache` to share one
        across comparators, or ``True`` to create a private one.
        Identical domain elements recur constantly across alternatives
        and candidate pairs, so hit rates are high; ignored for the
        error-free Equation 4 (plain equality needs no memo).  The
        value-level memo assumes each attribute's domain uses one
        consistent value type (mixing e.g. ``1`` and ``1.0`` outcomes
        inside uncertain values can alias memo entries, since Python
        treats cross-type numeric equals as the same dict key).
    min_similarity:
        Threshold-pushdown floor.  With a positive floor and a
        *bandable* base comparator (one exposing
        ``with_min_similarity``, e.g.
        :data:`~repro.similarity.kernels.FAST_LEVENSHTEIN`), the
        **certain-value fast path** runs the cutoff-banded kernel:
        results at or above the floor stay exact bit for bit, results
        below it may come back as 0.0 ("below cutoff") without paying
        for the full dynamic program.  The Equation-5 expectation over
        genuinely uncertain values always uses *exact* domain
        similarities — a convex combination of clamped terms could
        cross a decision step the exact expectation does not, so
        pruning inside the expectation would be unsound.  Floors are
        normally derived from the decision model
        (:func:`repro.matching.pushdown.derive_floors`) rather than
        chosen by hand.
    """

    def __init__(
        self,
        base: Comparator | None = None,
        *,
        pattern_policy: str = PatternPolicy.STRICT,
        pattern_lexicon: Iterable[str] | None = None,
        cache: SimilarityCache | bool | None = None,
        min_similarity: float = 0.0,
    ) -> None:
        if pattern_policy not in PatternPolicy.ALL:
            raise ValueError(
                f"unknown pattern policy {pattern_policy!r}; "
                f"expected one of {PatternPolicy.ALL}"
            )
        if pattern_policy == PatternPolicy.EXPAND and pattern_lexicon is None:
            raise ValueError("expand policy requires a pattern_lexicon")
        self._base = base
        self._policy = pattern_policy
        self._lexicon = (
            tuple(pattern_lexicon) if pattern_lexicon is not None else None
        )
        # Explicit None/False test: a freshly created SimilarityCache is
        # empty and therefore falsy (it defines __len__), but passing
        # one must still enable caching.
        enabled = cache is not None and cache is not False
        self._memoize = enabled
        self._cache: SimilarityCache | None = None
        if enabled and base is not None:
            self._cache = (
                cache
                if isinstance(cache, SimilarityCache)
                else SimilarityCache(base)
            )
        # Value-level memos (enabled together with the element cache):
        # full Equation-5 results keyed by ``left * PAIR_BASE + right`` of
        # the ordered pair's value codes, which the registry assigns per
        # exact key (:attr:`ProbabilisticValue.exact_key`), and pattern
        # expansions keyed by the unexpanded value's exact key.  One
        # memo serves the per-pair call and similarity_batch.
        self._memo: dict[int, float] = {}
        self._prepared_cache: dict[tuple, ProbabilisticValue] = {}
        # Element and value codes, created by the first call that
        # needs them; replacing it empties the memo.
        self._registry: _Registry | None = None
        # Threshold pushdown: a positive floor plus a bandable base
        # arms the certain-value fast path with the cutoff-banded
        # kernel and a banded cache of its own beside the exact one.
        self._floor = float(min_similarity)
        if not 0.0 <= self._floor <= 1.0:
            raise ValueError(
                f"min_similarity outside [0, 1]: {min_similarity}"
            )
        self._banded_base: Comparator | None = None
        self._banded_cache: SimilarityCache | None = None
        if self._floor > 0.0 and base is not None:
            maker = getattr(base, "with_min_similarity", None)
            if callable(maker):
                self._banded_base = maker(self._floor)
                if self._cache is not None:
                    self._banded_cache = SimilarityCache(
                        self._banded_base,
                        max_entries=self._cache.max_entries,
                        reflexive_value=self._cache.reflexive_value,
                        band=self._floor,
                    )

    def configured(
        self, floor: float | None = None, kernel: str | None = None
    ) -> "UncertainValueComparator":
        """A clone pruning below *floor* on kernel *kernel*.

        *floor* ``None`` keeps this comparator's floor; *kernel*
        ``None`` (or a base that is not backend-aware, e.g.
        Jaro–Winkler) keeps its kernel.  Both kernels are pinned
        bitwise to the reference DPs, so only the floor can change a
        result, and only below it.  A clone on the same kernel shares
        this comparator's *exact* domain-element cache (the Equation-5
        expectation still needs exact similarities); a clone on another
        kernel gets a fresh one with the same ``max_entries`` and
        ``reflexive_value``, which scores its misses with that kernel.
        Either gets its own banded cache for a positive floor.

        Returns ``self`` when nothing changes: the same floor and
        kernel, the error-free Equation 4 (results are already 0/1
        steps), or a positive floor on a base without a cutoff band (no
        ``with_min_similarity``) — cloning those would cost warm
        value-level memos without skipping any work.
        """
        floor = self._floor if floor is None else float(floor)
        if not 0.0 <= floor <= 1.0:
            raise ValueError(f"min_similarity outside [0, 1]: {floor}")
        base = self._base
        if base is None:
            return self
        if floor > 0.0 and not callable(
            getattr(base, "with_min_similarity", None)
        ):
            floor = self._floor
        switch = getattr(base, "with_backend", None)
        if kernel is not None and callable(switch):
            base = switch(kernel)
        if floor == self._floor and base is self._base:
            return self
        cache: SimilarityCache | bool = self._memoize
        if self._cache is not None:
            cache = (
                self._cache
                if base is self._base
                else SimilarityCache(
                    base,
                    max_entries=self._cache.max_entries,
                    reflexive_value=self._cache.reflexive_value,
                )
            )
        return UncertainValueComparator(
            base,
            pattern_policy=self._policy,
            pattern_lexicon=self._lexicon,
            cache=cache,
            min_similarity=floor,
        )

    @property
    def is_error_free(self) -> bool:
        """Whether this comparator implements Equation 4 (no base sim)."""
        return self._base is None

    @property
    def min_similarity(self) -> float:
        """The configured pushdown floor (0.0 means exact everywhere)."""
        return self._floor

    @property
    def cache(self) -> SimilarityCache | None:
        """The domain-element memo the fast path uses, when enabled.

        For a floor-configured comparator with a bandable base this is
        its *banded* cache (entries hold results pruned at its floor);
        :attr:`exact_cache` exposes the exact table the Equation-5
        expectation reads.
        """
        if self._banded_cache is not None:
            return self._banded_cache
        return self._cache

    @property
    def exact_cache(self) -> SimilarityCache | None:
        """The exact (band-0) domain-element memo, when enabled."""
        return self._cache

    def _certain_similarity(self, left: Any, right: Any) -> float:
        """Fast-path similarity of two concrete elements, floor-aware.

        The only place pruning may engage: both operands are certain,
        so the domain-element similarity *is* the attribute similarity
        and the banded kernel's "exact at or above the floor, possibly
        0.0 below" contract holds end to end.  Pattern values keep the
        exact path (their prefix heuristic slices operands before
        comparing, which the band math does not model).
        """
        if (
            self._banded_base is not None
            and not isinstance(left, PatternValue)
            and not isinstance(right, PatternValue)
        ):
            cache = self._banded_cache
            if cache is not None:
                return cache(left, right)
            return self._banded_base(left, right)
        return self._domain_similarity(left, right)

    def _domain_similarity(self, left: Any, right: Any) -> float:
        """Similarity of two concrete (non-⊥) domain elements (exact)."""
        left_is_pattern = isinstance(left, PatternValue)
        right_is_pattern = isinstance(right, PatternValue)
        if left_is_pattern or right_is_pattern:
            if self._policy == PatternPolicy.STRICT:
                raise ValueError(
                    "encountered a PatternValue but pattern_policy is "
                    "'strict'; expand patterns or configure a policy"
                )
            base = self._base if self._base is not None else _equality
            if left_is_pattern:
                return _prefix_pattern_similarity(base, left, right)
            return _prefix_pattern_similarity(base, right, left)
        if self._base is None:
            return 1.0 if left == right else 0.0
        if self._cache is not None:
            return self._cache(left, right)
        return self._base(left, right)

    def _prepared(self, value: ProbabilisticValue) -> ProbabilisticValue:
        """Expand patterns when the policy requires it (memoized)."""
        if self._policy != PatternPolicy.EXPAND:
            return value
        if self._memoize:
            cached = self._prepared_cache.get(value.exact_key)
            if cached is not None:
                return cached
        prepared = value
        if any(isinstance(v, PatternValue) for v in value.support):
            prepared = value.expand_patterns(self._lexicon or ())
        if self._memoize:
            if len(self._prepared_cache) >= _VALUE_MEMO_CAP:
                self._prepared_cache.clear()
            self._prepared_cache[value.exact_key] = prepared
        return prepared

    def __call__(
        self,
        left: ProbabilisticValue | Any,
        right: ProbabilisticValue | Any,
    ) -> float:
        """Expected similarity of two (possibly certain) attribute values.

        Plain Python values are coerced to certain probabilistic values so
        the comparator can be used uniformly.  Two *certain* values — the
        dominant case for flat relations — skip coercion, pattern
        expansion and the double loop of Equation 5 entirely and go
        straight to the domain comparator.
        """
        left_plain = self._plain_element(left)
        if left_plain is not _UNCERTAIN:
            right_plain = self._plain_element(right)
            if right_plain is not _UNCERTAIN:
                if left_plain is NULL or right_plain is NULL:
                    return 1.0 if left_plain is right_plain else 0.0
                return self._certain_similarity(left_plain, right_plain)
        left_value = _coerce(left)
        right_value = _coerce(right)
        if self._memoize:
            # Memoize whole Equation-5 results on the *ordered* pair of
            # value codes: uncertain values recur across candidate
            # pairs, and only codes of keys exact in outcome order and
            # probability keep memoized results bit-identical to the
            # uncached double loop.
            registry = self._registry
            if registry is None:
                registry = self._new_registry()
            left_key = left_value.exact_key
            right_key = right_value.exact_key
            try:
                values = registry.values
                return self._memo[
                    values[left_key] * PAIR_BASE + values[right_key]
                ]
            except KeyError:
                pass
            left_prepared = self._prepared(left_value)
            right_prepared = self._prepared(right_value)
            result = left_prepared.expected_similarity(
                right_prepared, self._domain_similarity
            )
            if len(registry) >= _VALUE_MEMO_CAP:
                registry = self._new_registry()
            memo = self._memo
            if len(memo) >= _VALUE_MEMO_CAP:
                memo.clear()
            left_code = registry.value(left_key, left_prepared.items())
            memo[
                left_code * PAIR_BASE
                + registry.value(right_key, right_prepared.items())
            ] = result
            return result
        return self._prepared(left_value).expected_similarity(
            self._prepared(right_value), self._domain_similarity
        )

    def _new_registry(self) -> "_Registry":
        """Start a fresh registry; the memo's codes die with the old one."""
        self._registry = _Registry()
        self._memo.clear()
        return self._registry

    def batch_registry(self) -> "_Registry":
        """The registry a batch encodes against: the current one, or a
        fresh one when there is none yet or it is full."""
        registry = self._registry
        if registry is None or len(registry) >= _VALUE_MEMO_CAP:
            registry = self._new_registry()
        return registry

    def encode(
        self, values: Sequence[ProbabilisticValue | Any]
    ) -> "CodedValues":
        """*values* as codes of the current registry (started if there
        is none): each value's plain element code and its value code.

        The one encoder of the batch path.  Each value costs one
        :meth:`_plain_element` and one :meth:`_Registry.value` call; a
        value code met for the first time also registers the value's
        prepared outcomes (``expand`` applied), which the Equation-5
        terms are later gathered from.
        """
        registry = self._registry
        if registry is None:
            registry = self._new_registry()
        plain_element = self._plain_element
        element = registry.element
        value_code = registry.value
        prepared = self._prepared
        plain: list[int] = []
        codes: list[int] = []
        for value in values:
            single = plain_element(value)
            if single is _UNCERTAIN:
                plain.append(_VALUE)
                value = _coerce(value)
                codes.append(
                    value_code(value.exact_key, prepared(value).items())
                )
            else:
                plain.append(element(single))
                key = _certain_key(value)
                codes.append(value_code(key, key))
        return CodedValues(
            registry,
            np.array(plain, dtype=np.int64),
            np.array(codes, dtype=np.int64),
        )

    def similarity_batch(
        self,
        values: Sequence[ProbabilisticValue | Any],
        lefts: np.ndarray,
        rights: np.ndarray,
    ) -> np.ndarray:
        """``self(values[lefts[c]], values[rights[c]])`` for every c, as float64.

        *values* are the operands of a batch and *lefts* / *rights*
        integer index arrays pairing them up; the values are encoded
        (:meth:`encode`) and scored by :meth:`similarity_codes`.
        """
        self.batch_registry()
        return self.similarity_codes(self.encode(values), lefts, rights)

    def similarity_codes(
        self, coded: "CodedValues", lefts: np.ndarray, rights: np.ndarray
    ) -> np.ndarray:
        """``self(values[lefts[c]], values[rights[c]])`` for every c of
        the values *coded* stands for, as float64.

        Every rule of :meth:`__call__` holds pair by pair — ⊥
        semantics, the certain-value fast path (banded under a pushdown
        floor), ``expand`` preparation, the Equation-5 memo (the one
        the per-pair call uses) and the double loop summed term by term
        in dict order — with the work done on integer codes: the memo
        is probed and filled by value code, Equation-5 terms are
        gathered from the registry's outcome arrays and summed as
        arrays, and each cache is probed by element code
        (:meth:`SimilarityCache.lookup_codes`, counting every occurrence
        as the per-pair calls would), so cache misses are scored in one
        batch call.  A batch that could overflow the value memo empties
        it first.  *coded* must come from the current registry.
        """
        registry = coded.registry
        if registry is not self._registry:
            raise RuntimeError("codes of a replaced registry")
        lefts = np.asarray(lefts, dtype=np.int64)
        rights = np.asarray(rights, dtype=np.int64)
        if self._memoize and (
            len(self._memo) + len(lefts) >= _VALUE_MEMO_CAP
        ):
            self._memo.clear()
        left_plain = coded.plain[lefts]
        right_plain = coded.plain[rights]
        results = np.zeros(len(lefts), dtype=np.float64)
        certain = (left_plain != _VALUE) & (right_plain != _VALUE)
        missing = certain & ((left_plain == _NULL) | (right_plain == _NULL))
        results[missing & (left_plain == right_plain)] = 1.0
        fast = np.flatnonzero(certain & ~missing)
        fast_pairs = np.stack((left_plain[fast], right_plain[fast]), axis=1)
        banded = np.zeros(len(fast), dtype=bool)
        if self._banded_base is not None:
            patterns = registry.patterns.array
            banded = ~(patterns[fast_pairs[:, 0]] | patterns[fast_pairs[:, 1]])
            results[fast[banded]] = self._element_similarities(
                registry,
                fast_pairs[banded],
                self._banded_cache,
                self._banded_base,
            )
        uncertain = np.flatnonzero(~certain)
        terms = _Terms()
        finish = self._expectations(
            coded, terms, lefts[uncertain], rights[uncertain]
        )
        exact_values = self._element_similarities(
            registry,
            np.concatenate((fast_pairs[~banded], terms.pairs)),
            self._cache,
            self._base,
        )
        direct = len(fast) - int(banded.sum())
        results[fast[~banded]] = exact_values[:direct]
        results[uncertain] = finish(exact_values[direct:])
        return results

    def _expectations(
        self, coded: "CodedValues", terms: "_Terms", lefts, rights
    ):
        """Equation 5 for uncertain value pairs, deferred on their terms.

        Adds the terms of every pair the memo cannot answer to *terms*
        and returns ``finish(similarities)``: given the similarities of
        ``terms.pairs``, each pair's expectation, with every newly
        computed one memoized.  Values with equal exact keys share a
        value code, so distinct pairs below are distinct memo keys.
        """
        value_codes = coded.values[np.concatenate((lefts, rights))]
        distinct, pair_slot, _, _ = unique_in_order(
            value_codes[: len(lefts)] * PAIR_BASE + value_codes[len(lefts) :]
        )
        memo = self._memo if self._memoize else None
        if memo is None:
            known = np.zeros(len(distinct), dtype=np.float64)
            missed = np.arange(len(distinct))
        else:
            known, missed = probe(memo, distinct)
        keys = distinct[missed]
        terms.expand(coded.registry, *np.divmod(keys, PAIR_BASE))

        def finish(similarities: np.ndarray) -> np.ndarray:
            totals = terms.sums(similarities)
            if memo is not None:
                memo.update(zip(keys.tolist(), totals.tolist()))
            known[missed] = totals
            return known[pair_slot]

        return finish

    def _element_similarities(
        self,
        registry: "_Registry",
        pairs: np.ndarray,
        cache: SimilarityCache | None,
        base: Comparator | None,
    ) -> np.ndarray:
        """Domain similarity of each element-code pair (``pairs`` is N×2).

        Patterns (by :meth:`_domain_similarity`) and Equation 4 (by
        equality) are resolved once per distinct pair, uncached;
        everything else through *cache*
        (:meth:`SimilarityCache.lookup_codes`, each pair one lookup)
        or, without one, once per distinct pair by *base*.
        """
        values = np.empty(len(pairs), dtype=np.float64)
        if not len(pairs):
            return values
        lefts = pairs[:, 0]
        rights = pairs[:, 1]
        if base is None:
            direct = np.ones(len(pairs), dtype=bool)
        else:
            patterns = registry.patterns.array
            direct = patterns[lefts] | patterns[rights]
        if direct.any():
            values[direct] = _each(
                registry.elements,
                self._domain_similarity,
                lefts[direct],
                rights[direct],
            )
            rest = ~direct
            lefts = lefts[rest]
            rights = rights[rest]
        else:
            rest = slice(None)
        if len(lefts):
            values[rest] = (
                cache.lookup_codes(
                    registry.elements, lefts, rights, registry.translations
                )
                if cache is not None
                else _each(registry.elements, base, lefts, rights)
            )
        return values

    def _plain_element(self, value: Any) -> Any:
        """The single domain element behind *value*, or ``_UNCERTAIN``.

        Maps ``None`` to ⊥ and unwraps certain probabilistic values.
        Pattern values are only treated as plain when no expansion is
        configured (``expand`` must go through the Equation-5 path).
        """
        if value is None or value is NULL:
            return NULL
        if isinstance(value, ProbabilisticValue):
            if not value.is_certain:
                return _UNCERTAIN
            value = value.certain_value
            if value is NULL:
                return NULL
        if (
            isinstance(value, PatternValue)
            and self._policy == PatternPolicy.EXPAND
        ):
            return _UNCERTAIN
        return value

    def __repr__(self) -> str:
        base_name = (
            "equality"
            if self._base is None
            else getattr(self._base, "name", "comparator")
        )
        floored = (
            f", min_similarity={self._floor:g}" if self._floor > 0.0 else ""
        )
        return (
            f"UncertainValueComparator(base={base_name}, "
            f"patterns={self._policy}{floored})"
        )


#: Sentinel returned by ``_plain_element`` when a value is genuinely
#: uncertain and must take the full Equation-5 path.
_UNCERTAIN = object()

#: Soft capacity of the per-comparator value-level memos; on overflow
#: they are cleared wholesale (see SimilarityCache for the rationale).
_VALUE_MEMO_CAP = 1 << 20


#: Plain-element codes of values that are ⊥ or genuinely uncertain
#: (element codes are ≥ 0).
_NULL = -1
_VALUE = -2


class _Registry:
    """Element and value codes, kept across batches and runs.

    Elements are coded by type and value, so ``1`` and ``1.0`` stay
    apart as they do in :class:`SimilarityCache` codes; values are coded
    by exact key, the Equation-5 memo's key.  Each value code's prepared
    outcomes are registered with it as flat arrays: the value's
    outcomes are ``items[starts[code] : starts[code] + sizes[code]]``
    (element codes, :data:`_NULL` for ⊥) with ``probabilities`` alike,
    in dict order.  :attr:`translations` holds each cache's translation
    of the element codes (:meth:`SimilarityCache.lookup_codes`).
    """

    __slots__ = (
        "_codes", "elements", "patterns", "values", "starts", "sizes",
        "items", "probabilities", "translations",
    )

    def __init__(self) -> None:
        self._codes: dict[Any, int] = {}
        self.elements: list[Any] = []
        self.patterns = AppendArray(bool)
        self.values: dict[tuple, int] = {}
        self.starts = AppendArray(np.int64)
        self.sizes = AppendArray(np.int64)
        self.items = AppendArray(np.int64)
        self.probabilities = AppendArray(np.float64)
        self.translations: dict = {}

    def __len__(self) -> int:
        return len(self.elements) + len(self.values)

    def element(self, element: Any) -> int:
        if element is NULL:
            return _NULL
        key = element if type(element) is str else (type(element), element)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self.elements)
            self.elements.append(element)
            self.patterns.append(isinstance(element, PatternValue))
        return code

    def value(
        self, exact_key: tuple, outcomes: Iterable[tuple[Any, float]]
    ) -> int:
        """The code of *exact_key*; a new one registers *outcomes*, the
        value's prepared ``(outcome, probability)`` items."""
        code = self.values.get(exact_key)
        if code is None:
            outcomes = tuple(outcomes)
            element = self.element
            self.starts.append(len(self.items))
            self.sizes.append(len(outcomes))
            self.items.extend([element(outcome) for outcome, _ in outcomes])
            self.probabilities.extend([p for _, p in outcomes])
            code = self.values[exact_key] = len(self.values)
        return code


class CodedValues:
    """A sequence of values as codes of one comparator's registry
    (:meth:`UncertainValueComparator.encode`).

    ``plain[i]`` is value ``i``'s single domain element's code,
    :data:`_NULL` for ⊥, or :data:`_VALUE` when it takes the Equation-5
    path; ``values[i]`` is its value code.
    """

    __slots__ = ("registry", "plain", "values")

    def __init__(
        self, registry: _Registry, plain: np.ndarray, values: np.ndarray
    ) -> None:
        self.registry = registry
        self.plain = plain
        self.values = values


def _certain_key(value: Any) -> tuple:
    """The exact key of a value whose plain element is not
    ``_UNCERTAIN``, without coercing it."""
    if isinstance(value, ProbabilisticValue):
        return value.exact_key
    if value is None or value is NULL:
        return _MISSING_KEY
    return ((value, 1.0),)


#: The exact key of the certainly-missing value.
_MISSING_KEY = ((NULL, 1.0),)


def _each(
    elements: list[Any], similarity: Comparator, lefts, rights
) -> np.ndarray:
    """*similarity* of each code pair, called once per distinct pair."""
    span = len(elements)
    distinct, inverse, _, _ = unique_in_order(lefts * span + rights)
    scored = score_codes(similarity, elements, *np.divmod(distinct, span))
    return np.asarray(scored, dtype=np.float64)[inverse]


class _Terms:
    """The Equation-5 double loops of a batch, as flat term arrays.

    Each value pair contributes its ``k × l`` terms in dict order (left
    outer, right inner); :meth:`sums` adds them up term position by
    term position for all pairs at once — per pair the scalar loop's
    sequence of ``total += w · sim`` (``+= w`` for ⊥ = ⊥, nothing for ⊥
    against a value).
    """

    __slots__ = ("pairs", "_weights", "_both_null", "_compared", "_offsets")

    def __init__(self) -> None:
        self.pairs = np.zeros((0, 2), dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)

    def expand(
        self, registry: _Registry, lefts: np.ndarray, rights: np.ndarray
    ) -> None:
        """Build the terms of the value pairs ``lefts[p], rights[p]``
        (value codes), gathered from *registry*'s outcome arrays;
        :attr:`pairs` then lists the element pairs :meth:`sums`
        needs."""
        if not len(lefts):
            return
        starts = registry.starts.array
        sizes = registry.sizes.array
        right_size = sizes[rights]
        counts = sizes[lefts] * right_size
        self._offsets = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(len(counts)), counts)
        within = np.arange(int(self._offsets[-1])) - self._offsets[:-1][owner]
        left_item = starts[lefts][owner] + within // right_size[owner]
        right_item = starts[rights][owner] + within % right_size[owner]
        probabilities = registry.probabilities.array
        self._weights = probabilities[left_item] * probabilities[right_item]
        items = registry.items.array
        left_codes = items[left_item]
        right_codes = items[right_item]
        self._both_null = (left_codes == _NULL) & (right_codes == _NULL)
        self._compared = (left_codes != _NULL) & (right_codes != _NULL)
        self.pairs = np.stack(
            (left_codes[self._compared], right_codes[self._compared]), axis=1
        )

    def sums(self, similarities: np.ndarray) -> np.ndarray:
        offsets = self._offsets
        counts = np.diff(offsets)
        totals = np.zeros(len(counts), dtype=np.float64)
        if not len(counts):
            return totals
        contribution = np.zeros(int(offsets[-1]), dtype=np.float64)
        contribution[self._both_null] = self._weights[self._both_null]
        contribution[self._compared] = (
            self._weights[self._compared] * similarities
        )
        starts = offsets[:-1]
        for term in range(int(counts.max())):
            pairs = counts > term
            totals[pairs] += contribution[starts[pairs] + term]
        return totals


def _equality(left: Any, right: Any) -> float:
    return 1.0 if left == right else 0.0


def _coerce(value: Any) -> ProbabilisticValue:
    if isinstance(value, ProbabilisticValue):
        return value
    if value is None or value is NULL:
        return ProbabilisticValue.missing()
    return ProbabilisticValue.certain(value)


def equality_probability(
    left: ProbabilisticValue | Any, right: ProbabilisticValue | Any
) -> float:
    """Equation 4 as a plain function: ``P(a1 = a2)``."""
    return _coerce(left).equality_probability(_coerce(right))


def expected_similarity(
    left: ProbabilisticValue | Any,
    right: ProbabilisticValue | Any,
    base: Comparator,
) -> float:
    """Equation 5 as a plain function, strict about patterns."""
    return UncertainValueComparator(base)(left, right)


#: Equation-4 comparator ready for registry use.
EQUALITY_PROBABILITY = NamedComparator(
    "equality_probability", equality_probability
)
