"""The two-sided counter's numerics up to window sizes of 2^62.

A counter's per-step probability p is about 0.7 / n, so at large n the
textbook forms 1 - x^(1/h) and 1 - (1 - p)^k lose their digits to
cancellation, and at n = 2^56 p rounds to 0: no count ever moves, and
members are rejected.  The counter computes both through ``expm1`` and
``log1p``, so a cell's chance of being set at each mark keeps its design
value at every window size.
"""

import math

import pytest
from conftest import build_analyzed

from regwin import make_counter, two_sided_tester
from regwin.testers_rand import TwoSidedTester, binomial_cdf


@pytest.mark.parametrize("eps", [0.25, 0.5])
@pytest.mark.parametrize("k", range(4, 63))
def test_cell_set_chance_at_both_marks_keeps_its_design_value(k, eps):
    """At the high mark a cell is set with chance 1/2 + margin/8; at the low
    mark with 1 - (1/2 - margin/8)^(low/high)."""
    counter = make_counter(2**k, eps, 5, 1)
    unset_at_high = 0.5 - counter.margin / 8.0
    assert counter.per_step_p > 0.0
    assert abs(counter.set_chance(counter.high_mark) - (0.5 + counter.margin / 8.0)) <= 1e-9
    low_design = -math.expm1(counter.low_mark / counter.high_mark * math.log(unset_at_high))
    assert abs(counter.set_chance(counter.low_mark) - low_design) <= 1e-9


@pytest.mark.parametrize("m", [95, 1019, 5833])
@pytest.mark.parametrize("p", [1e-9, 1e-13, 1e-16, 1e-19])
def test_binomial_cdf_holds_at_tiny_probabilities(m, p):
    """The table is a CDF ending at 1.0, its first entry is P(X = 0) =
    (1 - p)^m to within rounding, and its mean, the sum of 1 - P(X <= k),
    is m*p wherever m*p is well above the rounding of entries near 1."""
    cdf = binomial_cdf(m, p)
    assert cdf[-1] == 1.0
    assert all(a <= b for a, b in zip(cdf, cdf[1:]))
    assert abs(cdf[0] - math.exp(m * math.log1p(-p))) <= 2.0**-51
    if m * p >= 1e-11:
        mean = sum(1.0 - c for c in cdf)
        assert mean == pytest.approx(m * p, rel=1e-3)


@pytest.mark.parametrize("k", [20, 40, 56, 62])
def test_two_sided_verdicts_hold_past_two_to_the_fifty_six(k):
    """At n = 2^k + 1, windows built by ``feed_power``: ``b(aa)*`` accepts
    the member b a^(n-1), ``a*`` accepts the member a^n, and ``b(aa)*``
    rejects b^n, which is far from it, for every seed."""
    n = 2**k + 1
    cases = [("b(aa)*", "b", "a", True), ("a*", "a", "a", True), ("b(aa)*", "b", "b", False)]
    for pattern, first, rest, member in cases:
        for seed in range(10):
            tester = two_sided_tester(build_analyzed(pattern), n, 0.25, rng=seed)
            assert isinstance(tester, TwoSidedTester)
            tester.feed(first)
            tester.feed_power(rest, n - 1)
            assert tester.decide() == member, (pattern, first + rest, seed)
