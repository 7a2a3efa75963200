"""``monte_carlo`` fed run by run and power by power against the
per-symbol loop it replaced.

A library tester is fed one run of equal symbols, or one power of a word,
at a time through ``feed_run``, which also reports the largest state size
it passes.  On random machines and streams that mix long runs with single
symbols, and on random word powers, every deterministic kind must give
exactly the per-symbol loop's state, acceptance rate and largest state
size; the two-sided kind draws its counts in closed form, so its skeleton
and sizes are compared outright and its rate as a law, in a fixed-seed
two-sample check.
"""

import math

import numpy as np
import pytest
from conftest import AB, CORPUS, build_analyzed, build_dfa, complete_dfas, transient_partials
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import ThresholdCounter, feed_all

from regwin import (
    Alphabet,
    Dfa,
    StateLimitExceeded,
    analyze,
    exact_tester,
    generate,
    monte_carlo,
    prime_pool,
    realized_lengths,
    spec_from_string,
    trivial_tester,
)
from regwin import testers_det
from regwin.analysis import OneSidedClass, one_sided_class
from regwin.cli import Language, build_tester_factory, run_experiment
from regwin.streams import MonteCarloResult, trial_seed
from regwin.testers_det import (
    ExactWindowTester,
    FixedVerdictTester,
    PathSummaryTester,
    SkeletonTester,
    SlidingWindowTester,
    word_lassos,
)
from regwin.testers_rand import (
    FingerprintTable,
    OneSidedTester,
    TwoSidedTester,
    UnionTester,
    compile_one_sided,
    two_sided_tester,
)

RUNS = settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def per_symbol_monte_carlo(factory, stream, trials, master_seed, trace=False) -> MonteCarloResult:
    """The reference: every trial fed symbol by symbol, its state size read
    after every feed (with ``trace``, after its decision)."""
    symbols = list(stream)
    accepted = max_bits = 0
    traces = []
    for i in range(trials):
        tester = factory(np.random.default_rng(trial_seed(master_seed, i)))
        max_bits = max(max_bits, tester.state_bits())
        steps = []
        for symbol in symbols:
            tester.feed(symbol)
            if trace:
                steps.append(tester.decide())
            max_bits = max(max_bits, tester.state_bits())
        traces.append(tuple(steps))
        accepted += tester.decide()
    return MonteCarloResult(accepted / trials, max_bits, tuple(traces) if trace else None)


@st.composite
def machines_and_run_streams(draw):
    """A complete DFA with 1-6 states over 1-3 symbols (any initial state
    and pad; most machines of two or more states make their last state a
    rejecting sink, without which nearly all are trivial), a window size,
    and a stream of runs: single symbols between runs as long as a few
    windows."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    finals = draw(st.sets(state))
    if n_states >= 2 and draw(st.integers(0, 4)):
        delta[-1] = [n_states - 1] * len(symbols)
        finals.discard(n_states - 1)
    alphabet = Alphabet.from_string(symbols, draw(st.sampled_from(symbols)))
    dfa = Dfa(alphabet, delta, draw(state), finals)
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 40, 64]))
    lengths = st.one_of(st.just(1), st.integers(2, 8), st.integers(9, 3 * n + 9))
    runs = draw(st.lists(st.tuples(st.sampled_from(symbols), lengths), min_size=1, max_size=8))
    return dfa, n, "".join(symbol * k for symbol, k in runs)


KINDS = ("exact", "trivial", "det", "two-sided", "one-sided")


def assert_run_fed_matches(language, n, stream):
    """Every kind the language has: the same largest state size fed by runs
    as symbol by symbol, and the same acceptance rate but for two-sided."""
    for kind in KINDS:
        try:
            factory = build_tester_factory(kind, language, n, 0.5)
        except ValueError:  # no one-sided tester for this language
            continue
        fed, reference = (run(factory, stream, 2, 5) for run in (monte_carlo, per_symbol_monte_carlo))
        assert fed.max_state_bits == reference.max_state_bits, kind
        if kind != "two-sided":
            assert fed.accept_rate == reference.accept_rate, kind


@pytest.mark.parametrize("table_size", [testers_det.SKELETON_TABLE_SIZE, 2])
def test_run_fed_monte_carlo_matches_the_per_symbol_loop(table_size):
    @RUNS
    @given(machines_and_run_streams())
    def check(case):
        dfa, n, stream = case
        language = Language("random", dfa)
        try:
            language.analyzed
        except StateLimitExceeded:
            assume(False)
        assert_run_fed_matches(language, n, stream)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
        check()


# machines over {a, b} as (delta, initial, finals), each with runs to feed
# after the pad warm-up at n = 64
FEED_RUN_MACHINES = {
    # the run's first step holds the most entries of the b-run
    "peak-first": (([[2, 3], [3, 1], [0, 2], [0, 1]], 2, {0, 1, 2}), [("b", 40)]),
    # after one b, an a-run's entry counts cycle 4, 6, 4, 4, 6, ...
    "cycling": (([[1, 4], [2, 3], [3, 0], [1, 4], [3, 1]], 4, {0, 1, 3}), [("b", 1), ("a", 40)]),
    # with a table of 3, the walk empties and refills the table
    "stale-ids": (([[1, 3], [2, 2], [3, 0], [4, 5], [1, 5], [5, 5]], 3, {1}), [("b", 50), ("b", 50)]),
}
FEED_RUN_CASES = {
    "(aa)*|b(aa)*b": (
        build_analyzed("(aa)*|b(aa)*b"),
        [("b", 1), ("a", 40), ("b", 2), ("a", 3), ("b", 30), ("a", 200), ("b", 70)],
    ),
    **{name: (analyze(Dfa(AB, *machine)), runs) for name, (machine, runs) in FEED_RUN_MACHINES.items()},
}


@pytest.mark.parametrize("table_size", [testers_det.SKELETON_TABLE_SIZE, 2, 3])
@pytest.mark.parametrize("case", sorted(FEED_RUN_CASES))
def test_two_sided_feed_run_leaves_the_skeleton_of_its_feeds(case, table_size, monkeypatch):
    """The skeleton walk and the closed-form counts end where k feeds end,
    and the run reports the largest state size those feeds pass."""
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
    analyzed, runs = FEED_RUN_CASES[case]
    run_fed, stepped = (two_sided_tester(analyzed, 64, 0.5, rng=3) for _ in range(2))
    assert isinstance(run_fed, TwoSidedTester)
    for symbol, k in runs:
        most = run_fed.feed_run(symbol, k)
        bits = []
        for _ in range(k):
            stepped.feed(symbol)
            bits.append(stepped.state_bits())
        assert most == max(bits)
        assert run_fed._node.skeleton == stepped._node.skeleton


def test_det_feed_run_steps_past_a_repeated_skeleton():
    """The c-run's skeleton repeats from its first step, while the sizes
    read 16, then 20: the ages, not the skeleton, decide which entries
    count, so a run stopped at the first repeated skeleton would report 16."""
    machine = Dfa(Alphabet.from_string("abc"), [[1, 0, 2], [2, 1, 0], [2, 2, 2]], 0, [1])
    run_fed, stepped = (PathSummaryTester(analyze(machine), 3) for _ in range(2))
    for tester in (run_fed, stepped):
        tester.feed_power("b", 6)
    assert run_fed.feed_run("c", 4) == 20
    skeletons, bits = [], []
    for _ in range(4):
        stepped.feed("c")
        skeletons.append(stepped._node)
        bits.append(stepped.state_bits())
    assert all(node is skeletons[0] for node in skeletons) and bits[:2] == [16, 20]
    assert run_fed._rows == stepped._rows


@st.composite
def det_runs(draw):
    """An analyzed random complete DFA (1-6 states over 1-3 symbols), a
    window size from its state count to ten more, so that entries leave
    the window within a run, and runs of up to four windows."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    dfa = Dfa(Alphabet.from_string(symbols), delta, draw(state), draw(st.sets(state)))
    try:
        analyzed = analyze(dfa)
    except StateLimitExceeded:
        assume(False)
    n = analyzed.rdfa.n_states + draw(st.integers(0, 10))
    runs = draw(st.lists(st.tuples(st.sampled_from(symbols), st.integers(1, 4 * n)), min_size=1, max_size=6))
    return analyzed, n, runs


@pytest.mark.parametrize("table_size", [testers_det.SKELETON_TABLE_SIZE, 2])
def test_det_feed_run_matches_the_stepping_loop(table_size):
    """The closed-form run against the base class's loop of feeds: the
    same largest size, rows and verdict after every run."""

    @RUNS
    @given(det_runs())
    def check(case):
        analyzed, n, runs = case
        run_fed, stepped = (PathSummaryTester(analyzed, n) for _ in range(2))
        for symbol, k in runs:
            assert run_fed.feed_run(symbol, k) == SlidingWindowTester.feed_run(stepped, symbol, k)
            assert run_fed._rows == stepped._rows
            assert run_fed.decide() == stepped.decide()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
        check()


@pytest.mark.parametrize("symbol, k", [("a", 0), ("a", -1), ("c", 5), ("", 5)])
def test_det_feed_run_raises_before_any_change(symbol, k):
    tester = PathSummaryTester(build_analyzed("(aa)*|b(aa)*b"), 20)
    tester.feed_power("b", 3)
    before = (tester._node, tester._rows)
    with pytest.raises(ValueError):
        tester.feed_run(symbol, k)
    assert (tester._node, tester._rows) == before


def test_det_feed_run_steps_at_most_the_longest_tail_plus_the_cycles():
    """A run of 10^6 at n = 2^20 feeds at most tau + L symbols one by one;
    the rest is one closed-form power."""
    analyzed = build_analyzed("b(aa)*")
    run_fed, powered = (PathSummaryTester(analyzed, 2**20) for _ in range(2))
    run_fed.feed_run("b", 1)
    feeds = []
    feed = run_fed.feed
    run_fed.feed = lambda symbol: (feeds.append(symbol), feed(symbol))
    run_fed.feed_run("a", 10**6)
    _lassos, tail, cycle = run_fed._lassos[(analyzed.rdfa.alphabet.code("a"),)]
    assert len(feeds) <= tail + cycle == 3
    powered.feed("b")
    powered.feed_power("a", 10**6)
    assert run_fed._rows == powered._rows


@pytest.mark.parametrize("k", [0, -1])
def test_feed_run_rejects_an_empty_run(k):
    language = Language("b(aa)*", build_dfa("b(aa)*"))
    for kind in ("exact", "trivial", "det", "two-sided", "one-sided"):
        tester = build_tester_factory(kind, language, 64, 0.5)(np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one symbol"):
            tester.feed_run("a", k)


class FeedOnly:
    """A tester that offers only ``feed``, ``decide`` and ``state_bits``, as
    a delegating proxy does."""

    def __init__(self, inner):
        self.inner = inner

    def feed(self, symbol):
        self.inner.feed(symbol)

    def decide(self):
        return self.inner.decide()

    def state_bits(self):
        return self.inner.state_bits()


def test_monte_carlo_feeds_a_duck_typed_tester_symbol_by_symbol():
    language = Language("b(aa)*", build_dfa("b(aa)*"))
    stream = "b" + "a" * 100 + "ab" * 5 + "a" * 30
    for kind in ("det", "two-sided", "one-sided"):
        factory = build_tester_factory(kind, language, 64, 0.5)
        proxied = monte_carlo(lambda rng: FeedOnly(factory(rng)), stream, 3, 9)
        assert proxied == per_symbol_monte_carlo(factory, stream, 3, 9)


def test_two_sided_accept_rate_has_the_same_law_fed_by_runs():
    """``a*`` at n = 256, eps 0.5: the stream b a^214 leaves a window one
    symbol from the language with its b 214 symbols old, between the
    counter marks (129 and 256), where a trial accepts about half the time.
    Closed-form and per-symbol feeding must agree on it (|z| <= 4)."""
    factory = build_tester_factory("two-sided", Language("a*", build_dfa("a*")), 256, 0.5)
    assert isinstance(factory(np.random.default_rng(0)), TwoSidedTester)
    stream, trials = "b" + "a" * 214, 2000
    fed = monte_carlo(factory, stream, trials, 17).accept_rate
    reference = per_symbol_monte_carlo(factory, stream, trials, 18).accept_rate
    pooled = (fed + reference) / 2
    assert 0.2 < pooled < 0.8
    z = (fed - reference) / math.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert abs(z) <= 4, (fed, reference, z)


# languages with one-sided testers of every shape (fingerprinted parts, exact
# parts, unions), few of which random machines give
CORPUS_PATTERNS = sorted({pattern for _ident, pattern in CORPUS} | {"ab|ba*", "aab|b(aa)*", "(aa)*|b(aa)*b"})
RUN_STREAMS = ("b" + "a" * 70 + "ab" * 3 + "bb" + "a" * 40, "ba" * 20 + "b" * 90 + "a")


@pytest.mark.parametrize("pattern", CORPUS_PATTERNS)
def test_run_fed_monte_carlo_matches_the_per_symbol_loop_on_the_corpus(pattern):
    language = Language(pattern, build_dfa(pattern))
    for n in (3, 33, 64):
        for stream in RUN_STREAMS:
            assert_run_fed_matches(language, n, stream)


def test_run_fed_monte_carlo_counts_the_state_of_a_one_symbol_run():
    """On the peak-first machine a single b leaves the most entries of the
    whole stream."""
    machine, _runs = FEED_RUN_MACHINES["peak-first"]
    assert_run_fed_matches(Language("peak-first", Dfa(AB, *machine)), 64, "b" + "a" * 40)


# --- powers of words ----------------------------------------------------------


@st.composite
def word_powers(draw, sizes=(2, 3, 5, 8, 13, 40)):
    """A complete DFA, a window size, a prefix of up to n + 4 symbols, and
    one to three powers: a word of 2-5 symbols repeated up to 4n times."""
    dfa = draw(complete_dfas())
    symbols = "".join(dfa.alphabet.symbols)
    n = draw(st.sampled_from(sizes))
    prefix = draw(st.text(alphabet=symbols, max_size=n + 4))
    word = st.text(alphabet=symbols, min_size=2, max_size=5)
    powers = draw(st.lists(st.tuples(word, st.integers(1, 4 * n)), min_size=1, max_size=3))
    return dfa, n, prefix, powers


def analyzed_or_reject(dfa):
    try:
        return analyze(dfa)
    except StateLimitExceeded:
        assume(False)


def run_fed_and_stepped(build, prefix):
    """Two testers from ``build`` after ``prefix``: one for ``feed_run``, one
    for the base class's loop of feeds."""
    return feed_all(build(), prefix), feed_all(build(), prefix)


def feed_both(run_fed, stepped, word, k):
    """One power fed in closed form and by the loop: the same largest size."""
    assert run_fed.feed_run(word, k) == SlidingWindowTester.feed_run(stepped, word, k)


@pytest.mark.parametrize("table_size", [testers_det.SKELETON_TABLE_SIZE, 2])
def test_word_feed_run_matches_the_stepping_loop_on_the_skeleton_testers(table_size):
    """Det and stub two-sided rows equal outright, two-sided skeletons
    (their coins differ), and the same largest size and verdict."""

    @RUNS
    @given(word_powers())
    def check(case):
        dfa, n, prefix, powers = case
        analyzed = analyzed_or_reject(dfa)
        stub = lambda: ThresholdCounter(n // 2 + 1)  # noqa: E731
        det = run_fed_and_stepped(lambda: PathSummaryTester(analyzed, n), prefix)
        stubbed = run_fed_and_stepped(lambda: TwoSidedTester(analyzed, n, 0.5, counter_factory=stub), prefix)
        sampled = run_fed_and_stepped(lambda: two_sided_tester(analyzed, n, 0.5, rng=3), prefix)
        for word, k in powers:
            for pair in (det, stubbed, sampled):
                feed_both(*pair, word, k)
                assert pair[0].decide() == pair[1].decide() or pair is sampled
            assert det[0]._rows == det[1]._rows
            assert stubbed[0]._rows == stubbed[1]._rows
            if isinstance(sampled[0], TwoSidedTester):
                assert sampled[0]._node.skeleton == sampled[1]._node.skeleton

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
        check()


@RUNS
@given(word_powers())
def test_word_feed_run_matches_the_stepping_loop_on_the_fixed_size_testers(case):
    """One-sided values and verdicts for every pool prime, and the verdict
    and size of the exact testers (both reading orders), the trivial
    tester, the compiled one-sided tester and a union of two of them."""
    dfa, n, prefix, powers = case
    analyzed = analyzed_or_reject(dfa)
    try:
        lengths = realized_lengths(dfa)
        partials = transient_partials(analyzed)
        loglog = one_sided_class(dfa) is not OneSidedClass.LOG_LOWER_BOUND
    except StateLimitExceeded:
        assume(False)
    one_sided = [
        run_fed_and_stepped(lambda: OneSidedTester(FingerprintTable(partials, n), prime=prime), prefix)
        for prime in (prime_pool(n) if partials else ())
    ]
    others = [
        run_fed_and_stepped(lambda: exact_tester(dfa, n), prefix),
        run_fed_and_stepped(lambda: exact_tester(analyzed.rdfa, n), prefix),
        run_fed_and_stepped(lambda: trivial_tester(dfa.alphabet, lengths, n), prefix),
    ]
    if loglog:
        factory = compile_one_sided(dfa, n)
        others.append(run_fed_and_stepped(lambda: factory(7), prefix))
        others.append(run_fed_and_stepped(lambda: UnionTester([factory(7), factory(8)]), prefix))
    for word, k in powers:
        for run_fed, stepped in one_sided:
            feed_both(run_fed, stepped, word, k)
            assert (run_fed.values, run_fed.decide()) == (stepped.values, stepped.decide())
        for run_fed, stepped in others:
            feed_both(run_fed, stepped, word, k)
            assert (run_fed.decide(), run_fed.state_bits()) == (stepped.decide(), stepped.state_bits())


BAD_POWERS = [("", 3), ("ab", 0), ("ab", -1), ("abc", 3), ("cab", 0), ("abac", 2)]


def snapshot(tester):
    """What a feed changes: the rows (and a two-sided tester's generator),
    the fingerprint values, the window's stacks, per sub-tester of a union;
    a trivial tester keeps nothing."""
    if isinstance(tester, UnionTester):
        return [snapshot(t) for t in tester._testers]
    if isinstance(tester, SkeletonTester):
        rng = getattr(tester, "_rng", None)
        return tester._rows, rng and rng.bit_generator.state
    if isinstance(tester, OneSidedTester):
        return list(tester.values), [snapshot(part) for part in tester._exact]
    if isinstance(tester, ExactWindowTester):
        return list(tester._front), list(tester._back), tester._back_map
    return tester.decide(), tester.state_bits()


@pytest.mark.parametrize("pattern", ["b(aa)*", "aab|b(aa)*", "ab|ba*"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_bad_word_power_raises_before_any_change(kind, pattern):
    """An empty word, k <= 0 for a run (k < 0 for a power) or a foreign
    symbol anywhere in the word raises ValueError, and the tester goes on
    as its twin that never saw the call."""
    factory = build_tester_factory(kind, Language(pattern, build_dfa(pattern)), 64, 0.5)
    tester, twin = (factory(np.random.default_rng(5)) for _ in range(2))
    for t in (tester, twin):
        t.feed_run("ba", 3)
    before = snapshot(tester)
    for word, k in BAD_POWERS:
        with pytest.raises(ValueError):
            tester.feed_run(word, k)
        if (word, k) != ("ab", 0):
            with pytest.raises(ValueError):
                tester.feed_power(word, k)
        assert snapshot(tester) == before, (word, k)
    for symbol in "abaab" + "a" * 70:
        tester.feed(symbol)
        twin.feed(symbol)
        assert (tester.decide(), tester.state_bits()) == (twin.decide(), twin.state_bits())


def test_det_word_feed_run_steps_at_most_the_copies_its_lassos_bound():
    """10^6 copies of ab at n = 2^20 feed at most ceil((tau + L)/2) copies
    one symbol at a time, tau and L read off the product's lassos; the
    rest is one closed-form power."""
    analyzed = build_analyzed("b(aa)*")
    run_fed, powered = (PathSummaryTester(analyzed, 2**20) for _ in range(2))
    feeds = []
    feed = run_fed.feed
    run_fed.feed = lambda symbol: (feeds.append(symbol), feed(symbol))
    run_fed.feed_run("ab", 10**6)
    code = analyzed.rdfa.alphabet.code
    _lassos, tail, cycle = run_fed._lassos[(code("a"), code("b"))]
    assert 0 < len(feeds) <= -(-(tail + cycle) // 2) * 2 <= 8
    powered.feed_power("ab", 10**6)
    assert run_fed._rows == powered._rows


def flatten(pieces):
    return "".join(word * k for word, k in pieces)


@pytest.mark.parametrize("pattern", CORPUS_PATTERNS)
def test_monte_carlo_fed_pieces_matches_the_per_symbol_loop_on_the_corpus(pattern):
    """Word powers, runs and single symbols as pieces: every deterministic
    kind's rate and every kind's largest size as fed symbol by symbol."""
    language = Language(pattern, build_dfa(pattern))
    pieces = [("b", 1), ("ab", 40), ("a", 3), ("ba", 1), ("bba", 30), ("aab", 2), ("a", 70)]
    for n in (3, 33, 64):
        for kind in KINDS:
            try:
                factory = build_tester_factory(kind, language, n, 0.5)
            except ValueError:  # no one-sided tester for this language
                continue
            fed, reference = monte_carlo(factory, pieces, 2, 5), per_symbol_monte_carlo(factory, flatten(pieces), 2, 5)
            assert fed.max_state_bits == reference.max_state_bits, kind
            if kind != "two-sided":
                assert fed.accept_rate == reference.accept_rate, kind


def test_two_sided_accept_rate_has_the_same_law_fed_by_word_powers():
    """``(ab)*`` at n = 256, eps 0.5: bb then (ab)^107 leaves the bb 214
    symbols old, between the counter marks, where a trial accepts about
    half the time.  The closed-form power of ab and per-symbol feeding
    must agree on it (|z| <= 4), as for runs above."""
    factory = build_tester_factory("two-sided", Language("(ab)*", build_dfa("(ab)*")), 256, 0.5)
    assert isinstance(factory(np.random.default_rng(0)), TwoSidedTester)
    pieces, trials = [("bb", 1), ("ab", 107)], 2000
    fed = monte_carlo(factory, pieces, trials, 17).accept_rate
    reference = per_symbol_monte_carlo(factory, flatten(pieces), trials, 18).accept_rate
    pooled = (fed + reference) / 2
    assert 0.2 < pooled < 0.8
    z = (fed - reference) / math.sqrt(pooled * (1 - pooled) * 2 / trials)
    assert abs(z) <= 4, (fed, reference, z)


def test_run_experiment_on_an_ab_factor_stream_gives_the_per_symbol_rows():
    """The adversarial stream (ab)^128 a^20 is fed as one power of ab: det
    and one-sided rows equal those of the per-symbol loop."""
    label = "adversarial:ab,,a,,128,20"
    config = {
        "seed": 7,
        "trials": 5,
        "eps": 0.5,
        "window_sizes": [64, 255],
        "languages": [{"id": pattern, "regex": pattern, "alphabet": "ab"} for pattern in ("b(aa)*", "ba*")],
        "testers": ["det", "one-sided"],
        "streams": [spec_from_string(label).to_dict()],
        "timing": False,
    }
    rows = run_experiment(config)
    assert len(rows) == 8
    for row in rows:
        language = Language(row.language, build_dfa(row.language))
        factory = build_tester_factory(row.tester, language, row.n, 0.5)
        reference = per_symbol_monte_carlo(factory, generate(spec_from_string(label), AB), 5, 7)
        assert (row.accept_freq, row.state_bits) == (reference.accept_rate, reference.max_state_bits), row


def test_det_word_feed_run_steps_into_a_partial_last_copy():
    """Under bbaaa this machine's product lassos have tau = 7 and L = 5, and
    the largest size, 450, first shows in the third copy: stepping
    floor((tau + L)/|w|) = 2 copies would report 440."""
    analyzed = analyze(Dfa(AB, [[3, 4], [4, 3], [0, 4], [1, 2], [1, 0]], 0, [2, 3]))
    run_fed, stepped, two_copies = (feed_all(PathSummaryTester(analyzed, 26), "ab") for _ in range(3))
    assert word_lassos(run_fed._lassos, run_fed._moves, (1, 1, 0, 0, 0))[1:] == (7, 5)  # the codes of bbaaa
    assert SlidingWindowTester.feed_run(two_copies, "bbaaa", 2) == 440
    assert run_fed.feed_run("bbaaa", 9) == SlidingWindowTester.feed_run(stepped, "bbaaa", 9) == 450
    assert run_fed._rows == stepped._rows


# --- rows that draw no coin ---------------------------------------------------------


def counting(factory):
    """``factory`` wrapped to count its calls, and the list that counts them."""
    calls = []

    def counted(rng):
        calls.append(rng)
        return factory(rng)

    return counted, calls


UNION = Language("(aa)*|b(aa)*b", build_dfa("(aa)*|b(aa)*b"))  # 7 states read right to left
COIN_FREE_STREAM = "b" + "a" * 70 + "ab" * 5 + "bb" + "a" * 40


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("trials", [1, 2, 5])
@pytest.mark.parametrize(
    "kind, n, tester_class",
    [
        ("exact", 64, ExactWindowTester),
        ("trivial", 64, FixedVerdictTester),
        ("det", 64, PathSummaryTester),
        ("det", 3, ExactWindowTester),  # det's fallback below |Q|
        ("two-sided", 3, ExactWindowTester),  # two-sided's fallback where the counter marks cannot separate
    ],
)
def test_a_row_that_draws_no_coin_builds_one_tester(kind, n, tester_class, trials, trace):
    """The first trial leaves its generator unread, so the row is that
    trial counted ``trials`` times: the per-symbol loop's rate, largest
    state size and traces, from one call of the factory."""
    factory = build_tester_factory(kind, UNION, n, 0.5)
    assert type(factory(np.random.default_rng(0))) is tester_class
    counted, calls = counting(factory)
    result = monte_carlo(counted, COIN_FREE_STREAM, trials, 5, trace=trace)
    assert len(calls) == 1
    assert result == per_symbol_monte_carlo(factory, COIN_FREE_STREAM, trials, 5, trace=trace)


def test_a_proxy_of_a_coin_free_tester_builds_one_tester():
    factory = build_tester_factory("det", UNION, 64, 0.5)
    counted, calls = counting(lambda rng: FeedOnly(factory(rng)))
    assert monte_carlo(counted, COIN_FREE_STREAM, 4, 5) == per_symbol_monte_carlo(factory, COIN_FREE_STREAM, 4, 5)
    assert len(calls) == 1


class LateCoin(FeedOnly):
    """A det tester whose verdict is also a coin, drawn at its last feed."""

    def __init__(self, inner, rng, feeds):
        super().__init__(inner)
        self.rng, self.feeds, self.coin = rng, feeds, True

    def feed(self, symbol):
        super().feed(symbol)
        self.feeds -= 1
        if not self.feeds:
            self.coin = bool(self.rng.integers(2))

    def decide(self):
        return self.coin and super().decide()


class DecideCoin(FeedOnly):
    """A det tester whose every decision is also a fresh coin."""

    def __init__(self, inner, rng):
        super().__init__(inner)
        self.rng = rng

    def decide(self):
        return bool(self.rng.integers(2)) and super().decide()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("coin", ["late feed", "decide"])
def test_a_tester_that_draws_late_runs_every_trial(coin, trace):
    """A first coin drawn at the last feed, or in ``decide`` alone, is read
    when the trial ends: the row runs all its trials, which disagree."""
    det = build_tester_factory("det", Language("a*", build_dfa("a*")), 8, 0.5)
    stream = "b" + "a" * 20
    if coin == "late feed":
        factory = lambda rng: LateCoin(det(rng), rng, len(stream))  # noqa: E731
    else:
        factory = lambda rng: DecideCoin(det(rng), rng)  # noqa: E731
    counted, calls = counting(factory)
    result = monte_carlo(counted, stream, 20, 3, trace=trace)
    assert len(calls) == 20
    assert result == per_symbol_monte_carlo(factory, stream, 20, 3, trace=trace)
    assert 0 < result.accept_rate < 1


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize(
    "kind, pattern, tester_class",
    [("two-sided", "(aa)*|b(aa)*b", TwoSidedTester), ("one-sided", "ab|b(aa)*", OneSidedTester)],
)
def test_a_row_that_draws_coins_builds_a_tester_per_trial(kind, pattern, tester_class, trace):
    factory = build_tester_factory(kind, Language(pattern, build_dfa(pattern)), 64, 0.5)
    assert isinstance(factory(np.random.default_rng(0)), tester_class)
    counted, calls = counting(factory)
    monte_carlo(counted, COIN_FREE_STREAM, 5, 5, trace=trace)
    assert len(calls) == 5
