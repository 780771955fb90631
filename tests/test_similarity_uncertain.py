"""Unit tests for the Equation-4/5 lift (repro.similarity.uncertain)."""

from __future__ import annotations

import pytest

from repro.pdb import NULL, PatternValue, ProbabilisticValue
from repro.similarity import (
    HAMMING,
    PatternPolicy,
    UncertainValueComparator,
    equality_probability,
    expected_similarity,
)


class TestEquationFour:
    def test_plain_values_coerced(self):
        assert equality_probability("x", "x") == 1.0
        assert equality_probability("x", "y") == 0.0

    def test_none_means_null(self):
        assert equality_probability(None, None) == 1.0
        assert equality_probability(None, "x") == 0.0

    def test_distribution_overlap(self):
        left = ProbabilisticValue({"x": 0.6, "y": 0.4})
        right = ProbabilisticValue({"x": 0.5, "z": 0.5})
        assert equality_probability(left, right) == pytest.approx(0.3)

    def test_error_free_comparator_flag(self):
        assert UncertainValueComparator().is_error_free
        assert not UncertainValueComparator(HAMMING).is_error_free


class TestEquationFive:
    def test_paper_name_example(self):
        """sim(Tim, {Tim:.7, Kim:.3}) = 0.7 + 0.3·(2/3) = 0.9."""
        assert expected_similarity(
            "Tim", ProbabilisticValue({"Tim": 0.7, "Kim": 0.3}), HAMMING
        ) == pytest.approx(0.9)

    def test_paper_job_example(self):
        """sim({machinist:.7, mechanic:.2}, mechanic) = 53/90."""
        left = ProbabilisticValue({"machinist": 0.7, "mechanic": 0.2})
        assert expected_similarity(left, "mechanic", HAMMING) == pytest.approx(
            53 / 90
        )

    def test_null_semantics(self):
        comparator = UncertainValueComparator(HAMMING)
        assert comparator(None, None) == 1.0
        assert comparator(None, "x") == 0.0
        assert comparator("x", None) == 0.0

    def test_partial_null_mass(self):
        comparator = UncertainValueComparator(HAMMING)
        left = ProbabilisticValue({"x": 0.5})  # ⊥ mass 0.5
        right = ProbabilisticValue({"x": 0.5})  # ⊥ mass 0.5
        # 0.25·sim(x,x) + 0.25·sim(⊥,⊥) + 2·0.25·0
        assert comparator(left, right) == pytest.approx(0.5)

    def test_result_bounded_for_normalized_base(self):
        comparator = UncertainValueComparator(HAMMING)
        left = ProbabilisticValue({"abc": 0.3, "abd": 0.4, "xyz": 0.3})
        right = ProbabilisticValue({"abc": 0.6, "zzz": 0.4})
        assert 0.0 <= comparator(left, right) <= 1.0


class TestPatternPolicies:
    def test_strict_raises(self):
        comparator = UncertainValueComparator(HAMMING)
        with pytest.raises(ValueError):
            comparator(
                ProbabilisticValue.certain(PatternValue("mu*")), "musician"
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            UncertainValueComparator(HAMMING, pattern_policy="fuzzy")

    def test_expand_requires_lexicon(self):
        with pytest.raises(ValueError):
            UncertainValueComparator(
                HAMMING, pattern_policy=PatternPolicy.EXPAND
            )

    def test_expand_policy_uses_lexicon(self):
        comparator = UncertainValueComparator(
            HAMMING,
            pattern_policy=PatternPolicy.EXPAND,
            pattern_lexicon=["musician", "muralist"],
        )
        value = ProbabilisticValue.certain(PatternValue("mu*"))
        expected = 0.5 * HAMMING("musician", "musician") + 0.5 * HAMMING(
            "muralist", "musician"
        )
        assert comparator(value, "musician") == pytest.approx(expected)

    def test_prefix_policy_compares_prefixes(self):
        comparator = UncertainValueComparator(
            HAMMING, pattern_policy=PatternPolicy.PREFIX
        )
        value = ProbabilisticValue.certain(PatternValue("mu*"))
        # prefix 'mu' vs first two chars 'mu' of 'musician' ⇒ 1.0
        assert comparator(value, "musician") == pytest.approx(1.0)
        # 'mu' vs 'pi' ⇒ 0.0
        assert comparator(value, "pilot") == pytest.approx(0.0)

    def test_prefix_policy_pattern_vs_pattern(self):
        comparator = UncertainValueComparator(
            HAMMING, pattern_policy=PatternPolicy.PREFIX
        )
        left = ProbabilisticValue.certain(PatternValue("mu*"))
        right = ProbabilisticValue.certain(PatternValue("mu*"))
        assert comparator(left, right) == pytest.approx(1.0)

    def test_expand_mixed_distribution(self):
        comparator = UncertainValueComparator(
            HAMMING,
            pattern_policy=PatternPolicy.EXPAND,
            pattern_lexicon=["musician"],
        )
        value = ProbabilisticValue({PatternValue("mu*"): 0.5, "pilot": 0.5})
        result = comparator(value, "musician")
        assert result == pytest.approx(
            0.5 * 1.0 + 0.5 * HAMMING("pilot", "musician")
        )


class TestMembershipInvariance:
    """Tuple membership must never influence value similarity."""

    def test_comparator_only_sees_value_distributions(self):
        comparator = UncertainValueComparator(HAMMING)
        value = ProbabilisticValue({"Tim": 0.7, "Kim": 0.3})
        # The same distribution compared twice gives the same result; no
        # notion of tuple probability exists at this level by design.
        assert comparator(value, value) == comparator(value, value)


class TestExactMemoKeys:
    """The value-level memos never alias values that are equal only
    within tolerance: a memoized comparator returns, bit for bit, what
    the uncached Equation-5 double loop returns."""

    OTHER = ProbabilisticValue({"xyz": 0.3, "aaa": 0.3, "xbc": 0.4})

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                ProbabilisticValue({"xyz": 0.15, "abd": 0.25, "zzz": 0.6}),
                ProbabilisticValue({"zzz": 0.6, "abd": 0.25, "xyz": 0.15}),
            ),
            (
                ProbabilisticValue({"abd": 0.3, "xyz": 0.7}),
                ProbabilisticValue({"abd": 0.3 + 4e-10, "xyz": 0.7 - 4e-10}),
            ),
        ],
        ids=["reordered", "shifted"],
    )
    def test_memoized_result_is_bitwise_the_double_loop(self, first, second):
        assert first == second and hash(first) == hash(second)
        memoized = UncertainValueComparator(HAMMING, cache=True)
        uncached = UncertainValueComparator(HAMMING)
        memoized(first, self.OTHER)
        memoized(self.OTHER, first)
        assert memoized(second, self.OTHER) == uncached(second, self.OTHER)
        assert memoized(self.OTHER, second) == uncached(self.OTHER, second)
