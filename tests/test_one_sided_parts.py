"""The one-sided tester against its definition, part by part.

``OneSidedTester`` runs one part per partial machine: a prime fingerprint
where the partial machine's slack fits the window, exact tracking
otherwise.  On random small machines, window sizes that mix both kinds of
part and every prime of the pool, its verdict after every step must equal
the brute-force one: an exact part accepts iff the partial machine accepts
the window; a fingerprint part accepts iff the window size is a length the
partial machine can accept from its start state and the shortest suffix of
the stream that it accepts is congruent to the window size mod the prime.
``one_sided_tester`` builds no part that can never accept, and must give
the same verdicts and leave the same coins as the tester over every
partial machine.
"""

import numpy as np

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from regwin import (
    Alphabet,
    Dfa,
    OneSidedTester,
    Rdfa,
    StateLimitExceeded,
    analyze,
    enumerate_path_descriptions,
    one_sided_tester,
    prime_pool,
    retarget_finals,
)
from regwin.testers_det import FixedVerdictTester

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
    return next((k for k in range(len(stream) + 1) if partial.accepts(stream[len(stream) - k :])), None)


def part_verdict(partial, n, prime, stream):
    if partial.singleton_word is not None or n < partial.length_slack + len(partial.states):
        return partial.accepts(stream[len(stream) - n :] if n else "")
    k = shortest_accepted_suffix(partial, stream)
    return partial.acc[partial.start].member(n) and k is not None and k % prime == n % prime


@FUZZ
@given(machines_and_streams())
def test_one_sided_verdict_matches_its_parts_definition_after_every_step(case):
    machine, n, stream = case
    try:
        analyzed = analyze(machine)
    except StateLimitExceeded:
        assume(False)
    transient_finals = [f for f in sorted(analyzed.rdfa.finals) if analyzed.scc.is_transient_state(f)]
    assume(transient_finals)
    pad = machine.alphabet.pad
    for f in transient_finals:
        partials = enumerate_path_descriptions(retarget_finals(analyzed, (f,)))
        primes = prime_pool(max(n, 2))
        testers = [OneSidedTester(partials, n, prime=prime) for prime in primes]
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
    machine, n, stream = case
    try:
        analyzed = analyze(machine)
    except StateLimitExceeded:
        assume(False)
    transient_finals = [f for f in sorted(analyzed.rdfa.finals) if analyzed.scc.is_transient_state(f)]
    assume(transient_finals)
    for f in transient_finals:
        partials = enumerate_path_descriptions(retarget_finals(analyzed, (f,)))
        live = [partial for partial in partials if partial.acc[partial.start].member(n)]
        coins, reference_coins = np.random.default_rng(n), np.random.default_rng(n)
        tester = one_sided_tester(partials, n, coins)
        reference = OneSidedTester(partials, n, reference_coins)
        assert coins.integers(1 << 62) == reference_coins.integers(1 << 62)  # the same draws were taken
        if live:
            assert isinstance(tester, OneSidedTester) and len(tester._parts) == len(live)
        else:
            assert isinstance(tester, FixedVerdictTester)
        for symbol in [None, *stream]:
            if symbol is not None:
                tester.feed(symbol)
                reference.feed(symbol)
            assert tester.decide() == reference.decide(), (f, n, stream)
