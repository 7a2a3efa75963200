"""``feed_power(a, k)`` against k calls of ``feed(a)``.

Every summarizing tester advances k feeds of one symbol in closed form,
and the pad warm-up at construction is one such call.  On random machines,
after a random prefix, the closed form must leave exactly the state the
loop leaves: the deterministic rows, the stub two-sided rows and the
fingerprint values compared outright, and every tester compared by its
verdict and state size after every later feed.
"""

import random

import pytest
from conftest import build_analyzed, build_dfa, build_partials, transient_partials
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import ThresholdCounter, feed_all

from regwin import (
    Alphabet,
    Dfa,
    StateLimitExceeded,
    analyze,
    exact_tester,
    realized_lengths,
    reverse_to_rdfa,
    trivial_tester,
)
from regwin import testers_det, testers_rand
from regwin.analysis import OneSidedClass, one_sided_class
from regwin.testers_det import PathSummaryTester
from regwin.testers_rand import FingerprintTable, OneSidedTester, TwoSidedTester, UnionTester, compile_one_sided

POWER = settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def power_cases(draw):
    """A complete DFA with 1-6 states over 1-3 symbols (any initial state
    and pad), a window of 0-12, a prefix, a symbol and power k = 0..3n+2,
    a suffix to feed afterwards, a stub cutoff and a fingerprint prime."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    alphabet = Alphabet.from_string(symbols, draw(st.sampled_from(symbols)))
    dfa = Dfa(alphabet, delta, draw(state), draw(st.sets(state)))
    n = draw(st.integers(0, 12))
    prefix = draw(st.text(alphabet=symbols, max_size=2 * n + 4))
    symbol = draw(st.sampled_from(symbols))
    k = draw(st.integers(0, 3 * n + 2))
    suffix = draw(st.text(alphabet=symbols, max_size=n + 4))
    cutoff = draw(st.integers(1, n + 3))
    prime = draw(st.sampled_from([2, 3, 5, 7, 11]))
    return dfa, n, prefix, symbol, k, suffix, cutoff, prime


def powered_and_looped(build, prefix, symbol, k):
    """Two testers from ``build`` after ``prefix``: one advanced by
    ``feed_power(symbol, k)``, the other by k feeds."""
    powered, looped = feed_all(build(), prefix), feed_all(build(), prefix)
    powered.feed_power(symbol, k)
    for _ in range(k):
        looped.feed(symbol)
    return powered, looped


def assert_same_run(powered, looped, suffix):
    """Equal verdict and state size now and after every later feed."""
    assert (powered.decide(), powered.state_bits()) == (looped.decide(), looped.state_bits())
    for later in suffix:
        powered.feed(later)
        looped.feed(later)
        assert (powered.decide(), powered.state_bits()) == (looped.decide(), looped.state_bits())


@POWER
@given(power_cases())
def test_feed_power_equals_k_feeds(case):
    dfa, n, prefix, symbol, k, suffix, cutoff, prime = case
    try:
        analyzed = analyze(dfa)
        partials = transient_partials(analyzed)
        one_sided = one_sided_class(dfa) is not OneSidedClass.LOG_LOWER_BOUND
    except StateLimitExceeded:
        assume(False)

    det = powered_and_looped(lambda: PathSummaryTester(analyzed, n), prefix, symbol, k)
    assert det[0]._rows == det[1]._rows
    assert_same_run(*det, suffix)

    stub = powered_and_looped(
        lambda: TwoSidedTester(analyzed, n, 0.5, counter_factory=lambda: ThresholdCounter(cutoff)), prefix, symbol, k
    )
    assert stub[0]._rows == stub[1]._rows
    assert_same_run(*stub, suffix)

    groups = [[partial] for partial in partials]
    if partials:
        groups.append(partials)  # all of them in one table
    for group in groups:
        table = FingerprintTable(group, n)
        fingerprints = powered_and_looped(lambda: OneSidedTester(table, prime=prime), prefix, symbol, k)
        assert fingerprints[0].values == fingerprints[1].values
        assert_same_run(*fingerprints, suffix)

    assert_same_run(*powered_and_looped(lambda: exact_tester(dfa, n), prefix, symbol, k), suffix)
    lengths = realized_lengths(dfa)
    assert_same_run(*powered_and_looped(lambda: trivial_tester(dfa.alphabet, lengths, n), prefix, symbol, k), suffix)
    if one_sided:
        factory = compile_one_sided(dfa, n, prime=prime)
        assert_same_run(*powered_and_looped(lambda: factory(0), prefix, symbol, k), suffix)
        union = lambda: UnionTester([factory(0), trivial_tester(dfa.alphabet, lengths, n)])
        assert_same_run(*powered_and_looped(union, prefix, symbol, k), suffix)


@pytest.mark.parametrize("k", range(8))
def test_fingerprint_power_meets_a_final_steps_on(k):
    """Under b the start state of ``bbba*``'s partial machine meets the
    final three steps on, which random machines of at most six states
    rarely show."""
    partials = build_partials("bbba*")
    for prefix in ["", "a", "ab", "bba"]:
        table = FingerprintTable(partials, 16)
        powered, looped = powered_and_looped(lambda: OneSidedTester(table, prime=3), prefix, "b", k)
        assert powered._parts and powered.values == looped.values
        assert_same_run(powered, looped, "abbbaaab")


def test_fingerprint_power_walks_one_lasso_table_per_word(monkeypatch):
    """Repeated powers of one word read its lasso table; the warm-up's pad
    word and each new word are walked once."""
    walked = []
    walk = testers_det.walk_lassos
    monkeypatch.setattr(testers_det, "walk_lassos", lambda moves, codes: (walked.append(codes), walk(moves, codes))[1])
    tester = OneSidedTester(FingerprintTable(build_partials("bbba*"), 16), prime=3)
    for word in ("ab", "b", "ab", "b", "ab"):
        tester.feed_power(word, 40)
    assert walked == [(0,), (0, 1), (1,)]  # the pad a, then ab and b


def test_feed_power_rejects_a_negative_power():
    dfa = Dfa(Alphabet.from_string("ab"), [[0, 0]], 0, {0})
    with pytest.raises(ValueError, match="nonnegative"):
        PathSummaryTester(analyze(dfa), 4).feed_power("a", -1)


BAD_POWER_TESTERS = {
    "exact": lambda: exact_tester(build_dfa("ba*"), 4),
    "trivial": lambda: trivial_tester(Alphabet.from_string("ab"), realized_lengths(build_dfa("ba*")), 4),
    "det": lambda: testers_det.deterministic_tester(build_analyzed("ba*"), 4),
    "two-sided": lambda: testers_rand.two_sided_tester(build_analyzed("a*"), 64, 0.5, rng=0),
    "one-sided": lambda: OneSidedTester(FingerprintTable(build_partials("ba*"), 8), prime=3),
    "one-sided-exact-parts": lambda: OneSidedTester(FingerprintTable(build_partials("b(aa)*"), 1), rng=1),
    "union": lambda: UnionTester([compile_one_sided(build_dfa("ba*"), 8)(seed) for seed in (0, 1)]),
}


@pytest.mark.parametrize("kind", BAD_POWER_TESTERS)
def test_every_tester_rejects_a_bad_power(kind):
    """A negative power and a symbol outside the alphabet raise, even where
    the power is 0 and nothing would be fed."""
    tester = BAD_POWER_TESTERS[kind]()
    with pytest.raises(ValueError, match="^power must be nonnegative, got -1$"):
        tester.feed_power("a", -1)
    with pytest.raises(ValueError, match="not in the alphabet"):
        tester.feed_power("z", 0)


# --- exact windows under a huge power --------------------------------------------


HUGE_POWER = 2**40  # far more feeds than a loop over k could make


@pytest.mark.parametrize("pattern", ["b(aa)*", "(a|b)*a", "(aa)*|b(aa)*b"])
@pytest.mark.parametrize("read", [build_dfa, lambda p: reverse_to_rdfa(build_dfa(p))], ids=["dfa", "rdfa"])
def test_exact_power_past_the_window_leaves_the_window_of_one_symbol(pattern, read):
    """For k >= n the window after ``feed_power(a, k)`` is a^n, whatever
    came before: at n = 64 the tester agrees with one fed a^64, now and
    after each of 200 random feeds."""
    machine, n = read(pattern), 64
    rng = random.Random(pattern)
    powered = feed_all(exact_tester(machine, n), rng.choices("ab", k=90))
    powered.feed_power("a", HUGE_POWER)
    fed = feed_all(exact_tester(machine, n), "a" * n)
    assert powered.decide() == fed.decide()
    for symbol in rng.choices("ab", k=200):
        powered.feed(symbol)
        fed.feed(symbol)
        assert powered.decide() == fed.decide(), pattern


def test_one_sided_exact_part_takes_a_huge_power():
    """At n = 3 the one partial machine of ``b(aa)*`` is tracked exactly;
    a power of 2^40 reaches the window aaa as three feeds do."""
    table = FingerprintTable(build_partials("b(aa)*"), 3)
    powered, fed = (feed_all(OneSidedTester(table, rng=1), "aab") for _ in range(2))
    assert powered._exact and not powered._parts
    powered.feed_power("a", HUGE_POWER)
    feed_all(fed, "aaa")
    assert_same_run(powered, fed, "baabaabaa")


# --- construction at huge windows -------------------------------------------------


class _CountingFeeds:
    """Counts ``feed`` calls on every tester class while in use."""

    def __init__(self, monkeypatch):
        self.calls = 0
        classes = {testers_det.SlidingWindowTester}
        while True:
            more = {sub for cls in classes for sub in cls.__subclasses__()} - classes
            if not more:
                break
            classes |= more
        for cls in classes:
            if "feed" in vars(cls):
                monkeypatch.setattr(cls, "feed", self._wrap(cls.feed))

    def _wrap(self, feed):
        def counted(tester, symbol):
            self.calls += 1
            return feed(tester, symbol)

        return counted


HUGE = 2**30


@pytest.mark.parametrize("pattern", ["b(aa)*", "ba*", "(aa)*|b(aa)*b"])
def test_construction_at_a_huge_window_makes_no_feed(monkeypatch, pattern):
    """Det, two-sided and (where the language has one) one-sided testers
    at n = 2^30 reach their pad window without a single feed."""
    analyzed, dfa = build_analyzed(pattern), build_dfa(pattern)
    counting = _CountingFeeds(monkeypatch)
    testers = [
        testers_det.deterministic_tester(analyzed, HUGE),
        testers_rand.two_sided_tester(analyzed, HUGE, 0.25, rng=1),
    ]
    if one_sided_class(dfa) is not OneSidedClass.LOG_LOWER_BOUND:  # (aa)*|b(aa)*b has none
        testers.append(testers_rand.composed_one_sided_tester(dfa, HUGE, rng=1))
    assert counting.calls == 0
    det, two_sided = testers[:2]
    assert isinstance(det, PathSummaryTester) and isinstance(two_sided, TwoSidedTester)
    if pattern == "b(aa)*":
        assert (det.state_bits(), two_sided.state_bits()) == (165, 75)
    for tester in testers:
        tester.feed("b")
    assert counting.calls >= len(testers)  # the counting reaches every class in use
