"""The two-sided tester's count sampler.

A step advances each count by inverting a CDF table of Binomial(copies -
count, p) at a uniform; k steps at once (``feed_power``, the pad warm-up)
advance it by one Binomial(copies - count, 1 - (1 - p)^k) draw.  The
tables must be the exact binomial CDF, the edges p = 0 and p = 1 must be
point masses, and the counts a tester holds must follow the law
Binomial(copies, 1 - (1 - p)^age) of their age however their draws were
composed through rows.
"""

import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from conftest import build_analyzed
from reference import ThresholdCounter, compact_summaries

from regwin import ProbabilisticCounter, testers_rand
from regwin.testers_rand import TwoSidedTester, binomial_cdf, make_counter


def exact_cdf(m, p, length):
    """P(X <= k) for k < length and X ~ Binomial(m, p), in exact integer
    arithmetic: p = a/d as a fraction, each term comb(m, k) a^k (d-a)^(m-k) / d^m."""
    ratio = Fraction(p)
    a, d = ratio.numerator, ratio.denominator
    scale = d**m
    partial, cdf = 0, []
    for k in range(length):
        partial += math.comb(m, k) * a**k * (d - a) ** (m - k)
        cdf.append(partial / scale)  # int / int rounds correctly
    return cdf


# the benchmark's per-step probabilities (n = 4096 and n = 256), a moderate
# and a large one, and the two edges; m from 0 up to the benchmark's counter
# sizes, the long tables (large m, large p) only up to m = 689 to keep the
# exact sums quick
GRID = [
    (m, p)
    for m in (0, 1, 2, 3, 10, 57, 689, 3401, 5800)
    for p in (0.0, 1.8e-4, 2.8e-3, 0.05, 0.5, 1.0)
    if m <= 689 or p < 0.01
]


@pytest.mark.parametrize("m, p", GRID)
def test_table_is_the_exact_binomial_cdf(m, p):
    table = binomial_cdf(m, p)
    exact = exact_cdf(m, p, len(table))
    assert max(abs(x - y) for x, y in zip(table, exact)) <= 1e-12
    assert table[-1] == 1.0 and exact[-1] >= 1.0 - 1e-12  # cut where the CDF reaches 1.0
    assert all(x <= y for x, y in zip(table, table[1:]))
    assert len(table) <= m + 1


@pytest.mark.parametrize("u", [0.0, 0.3, 1.0 - 2.0**-53])
def test_edge_probabilities_are_point_masses(u):
    never = ProbabilisticCounter(10, 5, qsize=2, per_step_p=0.0).increment_cdfs()
    always = ProbabilisticCounter(10, 5, qsize=2, per_step_p=1.0).increment_cdfs()
    copies = ProbabilisticCounter(10, 5, qsize=2).copies
    for count in (0, 1, copies // 2, copies):
        assert bisect_right(never[count], u) == 0
        assert count + bisect_right(always[count], u) == copies


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_tester_with_edge_probability_sets_no_cell_or_every_cell(p):
    analyzed = build_analyzed("b(aa)*")
    tester = TwoSidedTester(
        analyzed, 9, 0.5, rng=1, counter_factory=lambda: ProbabilisticCounter(8, 3, qsize=5, per_step_p=p)
    )
    for symbol in "abaab":
        tester.feed(symbol)
    copies = ProbabilisticCounter(8, 3, qsize=5, per_step_p=p).copies
    for summary in compact_summaries(tester).values():
        *older, newest = summary.triples
        assert newest.count == 0
        for triple in older:  # every older triple has been incremented at least once
            assert triple.count == (0 if p == 0.0 else copies)


def test_counts_follow_the_binomial_law_of_their_age():
    """A count of age a (increments since its triple was created) is
    Binomial(copies, 1 - (1 - p)^a).  A ``ThresholdCounter`` stub run on
    the same stream gives the ages, since its count is the age; the
    (state, residue) structure is the same in every trial.  Sample mean and
    variance over seeded trials must lie within 5 standard errors."""
    analyzed = build_analyzed("b(aa)*")
    n, trials = 33, 3000
    stream = "b" + "a" * 9 + "b" + "aa" + "b" + "a" * 20

    def rows(tester):
        for ch in stream:
            tester.feed(ch)
        return {q: summary.triples[:-1] for q, summary in compact_summaries(tester).items()}

    stub_rows = rows(TwoSidedTester(analyzed, n, 0.5, counter_factory=lambda: ThresholdCounter(10**9)))
    skeleton = {q: [(tr.state, tr.residue) for tr in row] for q, row in stub_rows.items()}
    ages = {(q, i): tr.count for q, row in stub_rows.items() for i, tr in enumerate(row)}
    assert len(ages) >= 4 and len(set(ages.values())) >= 3
    counter = make_counter(n, 0.5, analyzed.rdfa.n_states, analyzed.t)
    copies, p = counter.copies, counter.per_step_p

    samples = {key: [] for key in ages}
    for seed in range(trials):
        held = rows(TwoSidedTester(analyzed, n, 0.5, rng=seed))
        assert {q: [(tr.state, tr.residue) for tr in row] for q, row in held.items()} == skeleton
        for q, i in ages:
            samples[q, i].append(held[q][i].count)

    for key, age in ages.items():
        flip = 1.0 - (1.0 - p) ** age
        mean, var = copies * flip, copies * flip * (1.0 - flip)
        fourth = var * (1.0 + 3.0 * (copies - 2) * flip * (1.0 - flip))  # fourth central moment
        values = samples[key]
        sample_mean = sum(values) / trials
        sample_var = sum((v - sample_mean) ** 2 for v in values) / (trials - 1)
        assert abs(sample_mean - mean) <= 5.0 * math.sqrt(var / trials), (key, age)
        var_error = math.sqrt((fourth - var**2 * (trials - 3) / (trials - 1)) / trials)
        assert abs(sample_var - var) <= 5.0 * var_error, (key, age)


# --- k increments in one draw -------------------------------------------------------


def assert_binomial_moments(values, m, flip, label):
    """Sample mean and variance of ``values`` within 5 standard errors of
    Binomial(m, flip)'s."""
    trials = len(values)
    mean, var = m * flip, m * flip * (1.0 - flip)
    fourth = var * (1.0 + 3.0 * (m - 2) * flip * (1.0 - flip))  # fourth central moment
    sample_mean = sum(values) / trials
    sample_var = sum((v - sample_mean) ** 2 for v in values) / (trials - 1)
    assert abs(sample_mean - mean) <= 5.0 * math.sqrt(var / trials), label
    var_error = math.sqrt((fourth - var**2 * (trials - 3) / (trials - 1)) / trials)
    assert abs(sample_var - var) <= 5.0 * var_error, label


def test_k_increments_follow_one_binomial_draw():
    """``advance(count, k)`` adds Binomial(copies - count, 1 - (1 - p)^k)."""
    counter = make_counter(33, 0.5, 5, 1)
    copies, p = counter.copies, counter.per_step_p
    rng = np.random.default_rng(2024)
    for count, k in [(0, 1), (0, 7), (10, 5), (copies // 2, 40), (3, 400)]:
        values = [counter.advance(count, k, rng) - count for _ in range(3000)]
        assert_binomial_moments(values, copies - count, 1.0 - (1.0 - p) ** k, (count, k))


@pytest.mark.parametrize("k", [0, 1, 5, 1000])
def test_k_increments_at_edge_probabilities_are_point_masses(k):
    never = ProbabilisticCounter(10, 5, qsize=2, per_step_p=0.0)
    always = ProbabilisticCounter(10, 5, qsize=2, per_step_p=1.0)
    rng = np.random.default_rng(0)
    for count in (0, 1, never.copies // 2, never.copies):
        assert never.advance(count, k, rng) == count
        assert always.advance(count, k, rng) == (always.copies if k else count)


@pytest.mark.parametrize("pad", ["a", "b"])
def test_fresh_tester_counts_follow_the_binomial_law_of_their_age(pad):
    """A tester reaches its pad window in one ``feed_power``, whose fresh
    entries draw their counts at once.  They must still follow
    Binomial(copies, 1 - (1 - p)^age), the ages read off a stub tester."""
    analyzed = build_analyzed("b(aa)*", "ab", pad)
    n, trials = 33, 3000
    stub = TwoSidedTester(analyzed, n, 0.5, counter_factory=lambda: ThresholdCounter(10**9))
    ages = {(q, i): age for q, row in enumerate(stub._rows) for i, (_s, _r, age) in enumerate(row)}
    assert ages
    counter = make_counter(n, 0.5, analyzed.rdfa.n_states, analyzed.t)
    samples = {key: [] for key in ages}
    for seed in range(trials):
        rows = TwoSidedTester(analyzed, n, 0.5, rng=seed)._rows
        assert [[(s, r) for s, r, _c in row] for row in rows] == [[(s, r) for s, r, _c in row] for row in stub._rows]
        for q, i in ages:
            samples[q, i].append(rows[q][i][2])
    for key, age in ages.items():
        assert_binomial_moments(samples[key], counter.copies, 1.0 - (1.0 - counter.per_step_p) ** age, (key, age))


def test_increment_tables_hold_a_bounded_memory(monkeypatch):
    """A counter's tables are emptied once they would pass
    ``CDF_TABLE_ENTRIES`` entries, so the memory a long stream leaves in
    them stops growing.  ``(aa)*|b(aa)*b`` at n = 20001 and eps 0.05 has
    118,065 cells per counter and small tables; on a stream of a's with a
    rare b its counts climb and seldom repeat, so its tables without the
    bound pass 40,000 entries in 10^3 feeds and 200,000 in 10^4, a traced
    peak that grows about fivefold.  With the bound set to 2^15 the peak
    after 10^4 feeds is within 2x the peak after 10^3, and every verdict
    is the unbounded tables' (a table is a value of a pure function)."""
    analyzed = build_analyzed("(aa)*|b(aa)*b")
    symbols = np.random.default_rng(5).choice(["a", "b"], 10**4, p=[0.999, 0.001]).tolist()
    reference = TwoSidedTester(analyzed, 20001, 0.05, rng=1)  # under the default bound, which it stays below
    verdicts = []
    for symbol in symbols:
        reference.feed(symbol)
        verdicts.append(reference.decide())
    testers_rand._shared_increment_cdfs.cache_clear()  # fresh tables, so the bound is what caps them
    monkeypatch.setattr(testers_rand, "CDF_TABLE_ENTRIES", 2**15)
    tracemalloc.start()
    try:
        tester = TwoSidedTester(analyzed, 20001, 0.05, rng=1)
        peaks = []
        for i, symbol in enumerate(symbols, 1):
            tester.feed(symbol)
            assert tester.decide() == verdicts[i - 1], i
            if i in (10**3, 10**4):
                peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        testers_rand._shared_increment_cdfs.cache_clear()
    assert tester._cdfs.entries <= 2**15
    assert peaks[1] <= 2 * peaks[0], peaks
