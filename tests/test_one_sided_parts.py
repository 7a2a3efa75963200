"""The one-sided tester against its definition, part by part.

``OneSidedTester`` runs one part per partial machine that can accept a
window of size n: a prime fingerprint in its one flat table where the
partial machine's slack fits the window, exact tracking otherwise.  On
random small machines, window sizes that mix both kinds of part and every
prime of the pool, its verdict after every step must equal the
brute-force one: an exact part accepts iff the partial machine accepts
the window; a fingerprint part accepts iff the window size is a length
the partial machine can accept from its start state and the shortest
suffix of the stream that it accepts is congruent to the window size mod
the prime.  It builds no part
for a partial machine that can never accept, rejects outright when none
is left, and draws its prime exactly once when some partial machine, kept
or not, can be fingerprinted, and never otherwise.
"""

import time
from itertools import accumulate, chain
from unittest import mock

import numpy as np
import pytest
from conftest import (
    AB,
    CORPUS,
    build_analyzed,
    build_dfa,
    build_partials,
    calls_feeding,
    complete_dfas,
    language_slice,
    make_call,
    transient_partials,
    uniform_periods,
)

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import feed_all, fingerprint_feed

from regwin import (
    Alphabet,
    Dfa,
    FingerprintTable,
    Language,
    OneSidedTester,
    Rdfa,
    StateLimitExceeded,
    analyze,
    compile_one_sided,
    composed_one_sided_tester,
    enumerate_path_descriptions,
    prefix_distance_to_language,
    prime_pool,
    reverse_to_rdfa,
    scc_decompose,
    testers_rand,
    trim_reachable,
)
from regwin.testers_det import ExactWindowTester

FUZZ = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def machines_and_streams(draw):
    """A complete Dfa or Rdfa with 1-6 states over 1-3 symbols, a window
    size of 0-10 and a stream of up to 16 symbols.  Most machines of three
    or more states end in a final state whose every transition leads to a
    sink, the last state, so that they have a transient final state."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    finals = draw(st.sets(state))
    if n_states >= 3 and draw(st.integers(0, 4)):
        final, sink = n_states - 2, n_states - 1
        delta[final] = delta[sink] = [sink] * len(symbols)
        finals.add(final)
    machine_class = draw(st.sampled_from([Rdfa, Dfa]))
    machine = machine_class(Alphabet.from_string(symbols), delta, draw(state), finals)
    return machine, draw(st.integers(0, 10)), draw(st.text(alphabet=symbols, max_size=16))


def shortest_accepted_suffix(partial, stream):
    return next((k for k in range(len(stream) + 1) if partial.machine.accepts(stream[len(stream) - k :])), None)


def fingerprinted(partial, n):
    return partial.singleton_word is None and n >= partial.length_slack + len(partial.states)


def part_verdict(partial, n, prime, stream):
    if not fingerprinted(partial, n):
        return partial.machine.accepts(stream[len(stream) - n :] if n else "")
    k = shortest_accepted_suffix(partial, stream)
    return partial.acc[partial.start].member(n) and k is not None and k % prime == n % prime


def transient_finals_of(machine):
    """The periods of the machine's uniformized right-to-left reader, the
    input of the path descriptions, and its transient finals.  (The
    property tests below keep the name ``analyzed`` for it, so that their
    drawn examples stay the ones they were.)"""
    try:
        info = uniform_periods(analyze(machine))
    except StateLimitExceeded:
        assume(False)
    transient_finals = [f for f in sorted(info.rdfa.finals) if info.scc.is_transient_state(f)]
    assume(transient_finals)
    return info, transient_finals


@FUZZ
@given(machines_and_streams())
def test_one_sided_verdict_matches_its_parts_definition_after_every_step(case):
    machine, n, stream = case
    analyzed, transient_finals = transient_finals_of(machine)
    pad = machine.alphabet.pad
    for f in transient_finals:
        partials = enumerate_path_descriptions(analyzed, f)
        primes = prime_pool(max(n, 2))
        testers = [OneSidedTester(FingerprintTable(partials, n), prime=prime) for prime in primes]
        consumed = pad * n
        for symbol in [None, *stream]:
            if symbol is not None:
                consumed += symbol
                for tester in testers:
                    tester.feed(symbol)
            for prime, tester in zip(primes, testers):
                expected = any(part_verdict(partial, n, prime, consumed) for partial in partials)
                assert tester.decide() == expected, (f, n, prime, consumed)


@FUZZ
@given(machines_and_streams())
def test_one_sided_tester_drops_only_parts_that_never_accept(case):
    """One part per partial machine whose acceptance set holds n, of the
    kind the definition names (the fingerprinted ones in the table, in
    order, the others exact, which start on their own pad window and are
    not fed the table's warm-up); one prime draw iff some partial
    machine, kept or not, can be fingerprinted; and the verdict of the
    drawn prime after every step."""
    machine, n, stream = case
    analyzed, transient_finals = transient_finals_of(machine)
    pad = machine.alphabet.pad
    for f in transient_finals:
        partials = enumerate_path_descriptions(analyzed, f)
        live = [partial for partial in partials if partial.acc[partial.start].member(n)]
        with (
            mock.patch.object(testers_rand, "sample_prime", wraps=testers_rand.sample_prime) as draws,
            mock.patch.object(ExactWindowTester, "feed_power") as exact_powers,
        ):
            tester = OneSidedTester(FingerprintTable(partials, n), np.random.default_rng(n))
        assert draws.call_count == any(fingerprinted(partial, n) for partial in partials), (f, n)
        assert exact_powers.call_count == 0, (f, n)
        assert tester._parts == tuple(partial for partial in live if fingerprinted(partial, n)), (f, n)
        assert len(tester.values) == sum(partial.machine.n_states for partial in tester._parts), (f, n)
        exact_count = sum(not fingerprinted(partial, n) for partial in live)
        assert [type(part) for part in tester._exact] == [ExactWindowTester] * exact_count, (f, n)
        if not live:
            assert tester.state_bits() == 1 and tester.values == [], (f, n)
        consumed = pad * n
        for symbol in [None, *stream]:
            if symbol is not None:
                consumed += symbol
                tester.feed(symbol)
            expected = any(part_verdict(partial, n, tester.prime, consumed) for partial in live)
            assert tester.decide() == expected, (f, n, consumed)


def test_one_sided_tester_built_directly_matches_the_compiled_parts_at_2_16():
    """Over ``ab|ba*``'s partial machines at n = 2^16 a tester per final
    reports 1 state bit for the single-word final, which keeps no part,
    and 35 for the other; the compiled tester over both finals keeps that
    one part in the same 35 bits.  Building a part for the single word
    used to cost 65,536 bits and about 60 ms."""
    n, prime = 2**16, max(prime_pool(2**16))
    dfa = build_dfa("ab|ba*")
    info = uniform_periods(analyze(dfa))
    compiled = compile_one_sided(dfa, n, prime=prime)(0)
    direct_bits = []
    for f in sorted(info.rdfa.finals):
        partials = enumerate_path_descriptions(info, f)
        seconds = []
        for _ in range(3):
            began = time.perf_counter()
            tester = OneSidedTester(FingerprintTable(partials, n), prime=prime)
            seconds.append(time.perf_counter() - began)
        assert min(seconds) < 0.02, (f, seconds)
        direct_bits.append(tester.state_bits())
    assert direct_bits == [1, 35]
    assert compiled.state_bits() == 35


@pytest.mark.parametrize("ident, pattern", [(ident, pattern) for ident, pattern in CORPUS if build_partials(pattern)])
def test_values_follow_the_successor_table_over_ten_windows(ident, pattern):
    """Over seeded streams of 10(n + 1) symbols at n = |Q|, 8 and 64, the
    table's lengths after every feed are the reference successor-table
    step of the lengths before, and the tester accepts iff a start state's
    length is n mod p or an exact part accepts."""
    n_states = build_analyzed(pattern).rdfa.n_states
    for n in sorted({max(n_states, 2), 8, 64}):
        tester = OneSidedTester(FingerprintTable(build_partials(pattern), n), np.random.default_rng(n))
        parts, prime, code = tester._parts, tester.prime, tester._code
        offsets = accumulate((partial.machine.n_states for partial in parts), initial=0)
        starts = [offset + partial.machine.initial for offset, partial in zip(offsets, parts)]
        values = tester.values
        for symbol in np.random.default_rng(n).choice(list(AB.symbols), 10 * (n + 1)).tolist():
            tester.feed(symbol)
            if parts:
                values = fingerprint_feed(parts, prime, values, code(symbol))
            assert tester.values == values, (n, symbol)
            accepts = any(values[start] == n % prime for start in starts)
            assert tester.decide() == (accepts or any(part.decide() for part in tester._exact)), n


@settings(FUZZ, max_examples=150)
@given(complete_dfas(), st.integers(2, 12), st.data())
def test_clock_and_births_stay_below_the_prime(dfa, n, data):
    """Over a mix of feeds, powers and runs five times longer than n + 1,
    the clock stays below p (1 with no fingerprinted part) and every birth
    in [0, p], and the state is the one symbol-by-symbol feeds reach."""
    try:
        partials = transient_partials(analyze(dfa))
    except StateLimitExceeded:
        assume(False)
    assume(partials)
    calls = data.draw(calls_feeding(dfa.alphabet.symbols, 5 * (n + 1)))
    tester, stepped = (OneSidedTester(FingerprintTable(partials, n), np.random.default_rng(n)) for _ in range(2))
    p = tester.prime if tester._parts else 1
    for call in calls:
        make_call(tester, *call)
        feed_all(stepped, call[1] * call[2])
        assert tester._period == p and 0 <= tester._now < p, call
        assert all(0 <= birth <= p for birth in tester._births), call
        assert (tester.values, tester.decide()) == (stepped.values, stepped.decide()), call


@pytest.mark.parametrize("prime", [1, 0, -3, 4, 239])
def test_one_sided_tester_refuses_a_prime_outside_the_pool(prime):
    """A prime outside ``prime_pool(n)`` voids the soundness bound: with
    prime 1 the window ``aaaaabaa`` of ``ba*`` (prefix distance 6, gap 4)
    was accepted on every run."""
    dfa = build_dfa("ba*")
    info = uniform_periods(analyze(dfa))
    (final,) = info.rdfa.finals
    partials = enumerate_path_descriptions(info, final)
    with pytest.raises(ValueError, match="not in the pool"):
        OneSidedTester(FingerprintTable(partials, 8), prime=prime)
    with pytest.raises(ValueError, match="not in the pool"):
        composed_one_sided_tester(dfa, 8, rng=0, prime=prime)


def test_one_sided_tester_ignores_a_prime_no_part_reads():
    """At n = 1 every part of ``b(aa)*`` is exact, so any given prime goes unread."""
    dfa = build_dfa("b(aa)*")
    info = uniform_periods(analyze(dfa))
    (final,) = info.rdfa.finals
    tester = OneSidedTester(FingerprintTable(enumerate_path_descriptions(info, final), 1), prime=0)
    assert tester.prime is None
    tester.feed("b")
    assert tester.decide()


def test_a_far_window_after_a_mixed_period_chain_fools_at_most_a_third_of_the_pool():
    """Read right to left, ``c(aaa)*b(aa)*`` crosses an SCC of period 2 and
    then one of period 3.  On the stream c a^(3J) b, J = 718,854,824, its
    member suffix is m = 3J + 2 symbols long, and at n = 64 m - n is
    2·5·7·11·13·17·19·23·29: nine of the 21 pool primes divide it.  The
    window a^63 b is 64 prefix edits from the language, past every partial
    machine's soundness gap, so at most a third of the pool may accept.
    The partial machines of the machine uniformized to period 6 pin each
    live length mod 6, and m is not n mod 3, so none accepts; partial
    machines that kept the plain chain's gcd period, 1, accept for those
    nine primes."""
    dfa, n, repeats = build_dfa("c(aaa)*b(aa)*", "abc"), 64, 718_854_824
    assert 3 * repeats + 2 - n == 2 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29
    language = Language("c(aaa)*b(aa)*", dfa)
    window = "a" * (n - 1) + "b"
    assert prefix_distance_to_language(window, dfa) > max(partial.soundness_gap for partial in language._partials)
    pool = prime_pool(n)
    accepted = 0
    for prime in pool:
        tester = language.one_sided_factory(n, prime)(None)
        tester.feed("c")
        tester.feed_power("aaa", repeats)
        tester.feed("b")
        accepted += tester.decide()
    assert accepted <= len(pool) // 3, (accepted, len(pool))


# --- one tester over every transient final ------------------------------------------

# languages with several transient finals and no recurrent one, so the
# compiled tester is one OneSidedTester over all of their partial machines
MULTI_FINAL_LANGUAGES = [("ab|ba*", "ab"), ("aab|b(aa)*", "ab"), ("(|c|cc|ccc|cccc|ccccc)ba*", "abc")]


def assert_merged_is_the_or(merged_of, info, finals, n, steps):
    """For every prime of ``prime_pool(n)``: before and after every step,
    a ``feed`` (k None) or a ``feed_run``, the tester ``merged_of(prime)``
    decides as the OR of one ``OneSidedTester`` per final of the
    uniformized machine ``info`` describes, at that prime."""
    primes = prime_pool(n)
    merged = [merged_of(prime) for prime in primes]
    per_final = [
        [OneSidedTester(FingerprintTable(enumerate_path_descriptions(info, f), n), prime=prime) for f in finals]
        for prime in primes
    ]
    for step in [None, *steps]:
        if step is not None:
            word, k = step
            for tester in chain(merged, *per_final):
                tester.feed(word) if k is None else tester.feed_run(word, k)
        for prime, tester, parts in zip(primes, merged, per_final):
            assert tester.decide() == any(part.decide() for part in parts), (n, prime, step)


def steps_over(symbols):
    """Single feeds and runs of a word of up to three symbols."""
    word = st.text(alphabet=symbols, min_size=1, max_size=3)
    feed = st.tuples(st.sampled_from(symbols), st.none())
    return st.lists(st.one_of(feed, st.tuples(word, st.integers(1, 40))), max_size=10)


def several_transient_finals(dfa):
    """Whether the right-to-left machine has two or more transient finals:
    the cheap filter before the analysis, whose uniformization keeps every
    transient state as it is."""
    rdfa = trim_reachable(reverse_to_rdfa(dfa))
    scc = scc_decompose(rdfa)
    return sum(scc.is_transient_state(f) for f in rdfa.finals) >= 2


@settings(FUZZ, max_examples=100)
@given(complete_dfas().filter(several_transient_finals), st.integers(2, 10), st.data())
def test_merged_tester_is_the_or_of_its_per_final_testers(dfa, n, data):
    analyzed, finals = transient_finals_of(dfa)
    partials = [partial for f in finals for partial in enumerate_path_descriptions(analyzed, f)]
    steps = data.draw(steps_over(dfa.alphabet.symbols))
    table = FingerprintTable(partials, n)
    assert_merged_is_the_or(lambda prime: OneSidedTester(table, prime=prime), analyzed, finals, n, steps)


@pytest.mark.parametrize("pattern, symbols", MULTI_FINAL_LANGUAGES)
@pytest.mark.parametrize("n", [2, 3, 8, 64])
def test_compiled_tester_is_the_or_of_its_per_final_testers(pattern, symbols, n):
    """The same over a seeded random stream, for the compiled tester."""
    dfa = build_dfa(pattern, symbols)
    info = uniform_periods(analyze(dfa))
    finals = sorted(info.rdfa.finals)
    assert all(info.scc.is_transient_state(f) for f in finals) and len(finals) >= 2
    rng = np.random.default_rng(n)
    steps = []
    for _ in range(40):
        word = "".join(rng.choice(list(symbols), size=int(rng.integers(1, 4))))
        steps.append((word[0], None) if rng.random() < 0.5 else (word, int(rng.integers(1, 70))))
    assert_merged_is_the_or(lambda prime: compile_one_sided(dfa, n, prime=prime)(0), info, finals, n, steps)


@pytest.mark.parametrize("pattern, symbols", MULTI_FINAL_LANGUAGES)
def test_compiled_tester_accepts_every_member_window_for_every_prime_of_its_pool(pattern, symbols):
    """Completeness over the whole pool of k transient finals, of which
    ``prime_pool(n)`` is the first part: every window of the language at
    n = 2..10, fed alone or after a prefix."""
    dfa = build_dfa(pattern, symbols)
    k = len({partial.final for partial in build_partials(pattern, symbols)})
    assert k >= 2
    checked = 0
    for n in range(2, 11):
        pool = prime_pool(n, k)
        assert pool[: len(prime_pool(n))] == prime_pool(n)
        members = sorted(language_slice(dfa, n))
        for prime in pool:
            factory = compile_one_sided(dfa, n, prime=prime)
            for member in members:
                for prefix in ("", symbols[::-1] * 3):
                    assert feed_all(factory(0), prefix + member).decide(), (n, prime, prefix, member)
                    checked += 1
    assert checked


# --- the accept path at scale ------------------------------------------------------


def step_map(machine, code):
    """One feed of a symbol as a map on exact shortest-suffix lengths: per
    state, ``(None, 0)`` for the final state, which holds 0, or
    ``(q, 1)``, one more than state q's old length (None is infinite)."""
    (final,) = machine.finals
    return [(None, 0) if p == final else (row[code], 1) for p, row in enumerate(machine.delta)]


def then(first, second):
    """The map of ``first`` followed by ``second``."""
    return [(q, add) if q is None else (first[q][0], first[q][1] + add) for q, add in second]


def power(step, k):
    """``step`` applied k times, by repeated squaring."""
    result, square = [(q, 0) for q in range(len(step))], step
    while k:
        if k & 1:
            result = then(result, square)
        square, k = then(square, square), k >> 1
    return result


def apply(mapping, lengths):
    return [add if q is None else None if lengths[q] is None else lengths[q] + add for q, add in mapping]


class IntegerReference:
    """Exact shortest-suffix lengths of every partial machine, as Python
    ints stepped through the maps above: no residue, no lasso."""

    def __init__(self, partials, n):
        self.partials, self.n = partials, n
        self.lengths = [[0 if q in p.machine.finals else None for q in range(p.machine.n_states)] for p in partials]
        self.feed_power(partials[0].machine.alphabet.pad, n)

    def feed_power(self, symbol, k):
        for i, partial in enumerate(self.partials):
            code = partial.machine.alphabet.code(symbol)
            self.lengths[i] = apply(power(step_map(partial.machine, code), k), self.lengths[i])

    def member(self):
        """Whether the window is in the language, for a language that is the
        union of the partial machines' languages: a window in a suffix-free
        language is the shortest suffix it accepts, so its length is n."""
        return any(lengths[p.machine.initial] == self.n for p, lengths in zip(self.partials, self.lengths))

    def verdict(self, prime):
        """The fingerprint definition: some partial machine that can accept
        a window of size n has a shortest accepted suffix congruent to n."""
        return any(
            partial.acc[partial.start].member(self.n)
            and lengths[partial.machine.initial] is not None
            and lengths[partial.machine.initial] % prime == self.n % prime
            for partial, lengths in zip(self.partials, self.lengths)
        )


@pytest.mark.parametrize("pattern", ["ba*", "b(aa)*", "ab|ba*", "aab|b(aa)*"])
@pytest.mark.parametrize("n", [2**12 + 1, 2**12 + 3, 2**20 + 1, 2**20 + 3])
def test_one_sided_verdict_matches_integer_lengths_at_scale(pattern, n):
    """The compiled tester of every pool prime, driven by ``feed`` and
    ``feed_power`` through member windows ``b a^(n-1)`` and windows near
    them, against the fingerprint definition read off exact integer
    lengths after every step; every prime accepts every member window.
    These languages have no recurrent final, so they are the union of
    their partial machines' languages."""
    dfa = build_dfa(pattern)
    partials = transient_partials(analyze(dfa))
    assert all(fingerprinted(p, n) for p in partials if p.acc[p.start].member(n))
    primes = prime_pool(n)
    testers = [compile_one_sided(dfa, n, prime=prime)(0) for prime in primes]
    reference = IntegerReference(partials, n)
    steps = [("b", None), ("a", n - 1), ("a", None), ("a", None), ("a", 40), ("b", None), ("a", n - 2),
             ("a", None), ("b", 5), ("a", None), ("b", None), ("a", n + 7), ("b", None), ("a", n - 1)]
    accepted_members = 0
    for symbol, k in steps:
        for tester in testers:
            tester.feed(symbol) if k is None else tester.feed_power(symbol, k)
        reference.feed_power(symbol, 1 if k is None else k)
        member = reference.member()
        for prime, tester in zip(primes, testers):
            assert tester.decide() == reference.verdict(prime), (pattern, n, prime, symbol, k)
            assert tester.decide() or not member, (pattern, n, prime, symbol, k)
        accepted_members += member
    assert accepted_members == 3
