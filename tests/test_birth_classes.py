"""Birth classes of the skeleton engine.

The skeleton testers keep one count per birth class, the entries whose
segments started at one step, and not one per entry.  Against per-entry
references stepped symbol by symbol (``prolong_compact_summary`` with the
exact ``ThresholdCounter`` stub, whose count is the entry's age, and
``path_summary_feed`` in ages), after feeds, word powers and runs: the
tester's rows are the reference's, the entries of one row lie in distinct
classes, and the entries of a class have equal ages; for the two-sided
stub the classes are exactly the entries of equal age.  With the real
counter, a window decided by entries aged between the gap marks is
accepted at the rate the independent per-entry law gives.
"""

import math

import numpy as np
import pytest
from conftest import CORPUS, build_analyzed, calls_feeding, complete_dfas, make_call
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import CompactSummary, SummaryTriple, ThresholdCounter, path_summary_feed, prolong_compact_summary

from regwin import StateLimitExceeded, analyze, two_sided_tester
from regwin import testers_det
from regwin.testers_det import PathSummaryTester
from regwin.testers_rand import TwoSidedTester, binomial_cdf, make_counter

TABLE_SIZES = [testers_det.SKELETON_TABLE_SIZE, 2]
CLASS_LANGUAGES = sorted({pattern for _ident, pattern in CORPUS} | {"(aa)*|b(aa)*b"})
STUB_CUTOFF = 10**9  # never reached: the stub's count is the entry's age


def stub_tester(analyzed, n):
    return TwoSidedTester(analyzed, n, 0.5, counter_factory=lambda: ThresholdCounter(STUB_CUTOFF))


class StubReference:
    """Per-entry compact summaries, each entry aged on its own."""

    def __init__(self, analyzed, n):
        self.analyzed, rdfa = analyzed, analyzed.rdfa
        self.summaries = [CompactSummary([SummaryTriple(q, 0, 0)]) for q in range(rdfa.n_states)]
        for _ in range(n):
            self.feed(rdfa.alphabet.pad)

    def feed(self, symbol):
        rdfa, counter = self.analyzed.rdfa, ThresholdCounter(STUB_CUTOFF)
        code = rdfa.alphabet.code(symbol)
        self.summaries = [
            prolong_compact_summary(self.summaries[successors[code]], code, p, self.analyzed, counter)
            for p, successors in enumerate(rdfa.delta)
        ]

    @property
    def rows(self):
        return [[tuple(triple) for triple in summary.triples[:-1]] for summary in self.summaries]


class DetReference:
    """Per-entry rows in ages, frozen at n + 1."""

    def __init__(self, analyzed, n):
        self.analyzed, self.n = analyzed, n
        self.rows = [[] for _ in range(analyzed.rdfa.n_states)]
        for _ in range(n):
            self.feed(analyzed.rdfa.alphabet.pad)

    def feed(self, symbol):
        self.rows = path_summary_feed(self.analyzed, self.rows, self.analyzed.rdfa.alphabet.code(symbol), self.n)


def assert_classes_follow_births(tester, reference, exact):
    """The tester's rows are the reference's; no row holds two entries of
    one class; the entries of a class have one reference age, older the
    lower the class; each ``entries_from`` counts its classes' entries;
    and, where ``exact``, entries of one age share their class.  The det reference
    freezes every age above n at n + 1, so there only live ages are exact."""
    rows = reference.rows
    assert tester._rows == rows
    classes = iter(tester._node.classes)
    class_age, age_class = {}, {}
    for row in rows:
        row_classes = [next(classes) for _entry in row]
        assert len(set(row_classes)) == len(row_classes), (row, row_classes)
        for c, (_s, _r, age) in zip(row_classes, row):
            assert class_age.setdefault(c, age) == age, (c, age, class_age[c])
            if exact(age):
                assert age_class.setdefault(age, c) == c, (age, c, age_class[age])
    assert next(classes, None) is None
    ages = [class_age[c] for c in range(len(class_age))]
    assert sorted(class_age) == list(range(len(tester._counts)))
    assert ages == sorted(ages, reverse=True), ages  # numbered by birth, the oldest first
    flat = tester._node.classes
    assert tester._node.entries_from == tuple(sum(c >= i for c in flat) for i in range(len(ages) + 1))


def check_calls(analyzed, n, calls):
    stub, det = stub_tester(analyzed, n), PathSummaryTester(analyzed, n)
    stub_ref, det_ref = StubReference(analyzed, n), DetReference(analyzed, n)
    for tester, reference, exact in ((stub, stub_ref, lambda age: True), (det, det_ref, lambda age: age <= n)):
        assert_classes_follow_births(tester, reference, exact)
    for call in calls:
        for tester, reference, exact in ((stub, stub_ref, lambda age: True), (det, det_ref, lambda age: age <= n)):
            make_call(tester, *call)
            for symbol in call[1] * call[2]:
                reference.feed(symbol)
            assert_classes_follow_births(tester, reference, exact)


def seeded_calls(symbols, length, seed):
    """Feeds, powers and runs from ``np.random``, about ``length`` symbols."""
    rng = np.random.default_rng(seed)
    calls, fed = [], 0
    while fed < length:
        method = ("feed", "feed_power", "feed_run")[int(rng.integers(3))]
        if method == "feed":
            word, k = str(rng.choice(list(symbols))), 1
        else:
            word = "".join(rng.choice(list(symbols), int(rng.integers(1, 4))).tolist())
            k = int(rng.integers(1, length))
        calls.append((method, word, k))
        fed += len(word) * k
    return calls


@pytest.mark.parametrize("table_size", TABLE_SIZES)
@pytest.mark.parametrize("pattern", CLASS_LANGUAGES)
def test_birth_classes_on_the_corpus(pattern, table_size, monkeypatch):
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
    analyzed = build_analyzed(pattern)
    for n in (analyzed.rdfa.n_states, 9, 40):
        check_calls(analyzed, n, seeded_calls("ab", 4 * (n + 1), n))


@pytest.mark.parametrize("table_size", TABLE_SIZES)
def test_birth_classes_on_random_machines(table_size):
    @settings(max_examples=120, suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(complete_dfas(max_states=8), st.integers(1, 12), st.data())
    def check(dfa, n, data):
        try:
            analyzed = analyze(dfa)
        except StateLimitExceeded:
            assume(False)
        check_calls(analyzed, n, data.draw(calls_feeding(dfa.alphabet.symbols, 3 * (n + 1))))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
        check()


# --- the law in the gap band ---------------------------------------------------------

GAP_TRIALS = 4000


def exact_acceptance(analyzed, n, eps, stream):
    """The acceptance probability of the window ``stream`` leaves, from
    the ages of the initial state's row (read off the stub) and the law
    Binomial(copies, set_chance(age)) of each count, the entries of the
    row independent: the oldest entry reading low decides, and the
    newest when every entry reads high.  Also the chances that each
    entry reads high."""
    stub = stub_tester(analyzed, n)
    for symbol in stream:
        stub.feed(symbol)
    counter = make_counter(n, eps, analyzed.rdfa.n_states, analyzed.t)
    low = (counter.copies - 1) // 2  # the largest count that reads low
    entries, newest = stub._node.decision
    chance, all_high, highs = 0.0, 1.0, []
    for (_s, _r, age), (_c, verdict) in zip(stub._rows[analyzed.rdfa.initial], entries):
        cdf = binomial_cdf(counter.copies, counter.set_chance(age))
        high = 1.0 - (cdf[low] if low < len(cdf) else 1.0)
        chance += all_high * (1.0 - high) * verdict
        all_high *= high
        highs.append(high)
    return chance + all_high * newest, highs


@pytest.mark.parametrize(
    "pattern, stream, in_band",
    [
        ("b(aa)*", "b" * 40 + "a" * 59, 1),  # one entry, aged 60, between the marks 51.75 and 63
        ("b(aa)*", "a" * 30 + "b" + "a" * 58, 2),  # two entries of one row, aged 59 and 60, both in the band
    ],
)
def test_gap_band_acceptance_follows_the_per_entry_law(pattern, stream, in_band):
    """At n = 65 and eps 0.25, a window whose verdict turns on counts aged
    between the gap marks is accepted, over 4,000 seeded trials fed symbol
    by symbol, within 4 standard deviations of the exact chance; with two
    entries in the band that chance reads their independence."""
    analyzed, n, eps = build_analyzed(pattern), 65, 0.25
    chance, highs = exact_acceptance(analyzed, n, eps, stream)
    assert sum(0.01 < high < 0.99 for high in highs) == in_band, highs
    assert 0.05 < chance < 0.95
    master, accepted = np.random.default_rng(2028), 0
    for _ in range(GAP_TRIALS):
        tester = two_sided_tester(analyzed, n, eps, rng=master)
        for symbol in stream:
            tester.feed(symbol)
        accepted += tester.decide()
    sigma = math.sqrt(chance * (1.0 - chance) / GAP_TRIALS)
    assert abs(accepted / GAP_TRIALS - chance) <= 4.0 * sigma, (accepted / GAP_TRIALS, chance)
