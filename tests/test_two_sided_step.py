"""The two-sided tester's batched step against its one-step definition.

``TwoSidedTester`` advances the summaries of all start states at once, as
flat rows of ``(state, residue, count)`` entries.  With deterministic
``ThresholdCounter`` stubs it must hold exactly the summaries that a chain
of ``prolong_compact_summary`` calls (the reference definition in
``reference.py``) builds, on random small machines and streams.
"""

import numpy as np
import pytest
from conftest import build_analyzed
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from reference import CompactSummary, SummaryTriple, ThresholdCounter, compact_summaries, prolong_compact_summary

from regwin import Alphabet, Dfa, StateLimitExceeded, analyze, make_counter, two_sided_tester
from regwin.testers_rand import TwoSidedTester

FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


@st.composite
def machines_and_streams(draw):
    """A complete DFA with 1-6 states over 1-2 symbols, a stream of up to
    30 symbols, a window size and a stub cutoff."""
    symbols = "ab"[: draw(st.integers(1, 2))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    finals = draw(st.sets(state))
    dfa = Dfa(Alphabet.from_string(symbols), delta, draw(state), finals)
    stream = draw(st.text(alphabet=symbols, max_size=30))
    window_size = draw(st.integers(1, 8))
    cutoff = draw(st.integers(1, window_size + 2))
    return dfa, stream, window_size, cutoff


def rows_of(summaries):
    return {q: cs.triples for q, cs in summaries.items()}


def reference_decision(analyzed, counter, summary, window_size):
    for tr in summary.triples:
        if not counter.reads_high(tr.count):
            return (window_size - tr.residue) % analyzed.g in analyzed.acc_mod[tr.state]
    raise AssertionError("newest triple is low by invariant")


@FUZZ
@given(machines_and_streams())
def test_batched_step_matches_chained_prolong(case):
    dfa, stream, window_size, cutoff = case
    try:
        analyzed = analyze(dfa)
    except StateLimitExceeded:
        assume(False)
    rdfa = analyzed.rdfa
    counter = ThresholdCounter(cutoff)
    reference = {q: CompactSummary([SummaryTriple(q, 0, 0)]) for q in range(rdfa.n_states)}

    def prolong(code):
        return {
            p: prolong_compact_summary(reference[rdfa.delta[p][code]], code, p, analyzed, counter)
            for p in range(rdfa.n_states)
        }

    for _ in range(window_size):
        reference = prolong(rdfa.alphabet.code(rdfa.alphabet.pad))
    tester = TwoSidedTester(analyzed, window_size, 0.5, counter_factory=lambda: ThresholdCounter(cutoff))
    assert rows_of(compact_summaries(tester)) == rows_of(reference)
    for symbol in stream:
        tester.feed(symbol)
        reference = prolong(rdfa.alphabet.code(symbol))
        assert rows_of(compact_summaries(tester)) == rows_of(reference), stream
        assert tester.decide() == reference_decision(analyzed, counter, reference[rdfa.initial], window_size)


def per_triple_bits(tester, analyzed):
    """The two-sided space formula as it was summed triple by triple, each
    count costing the bits of the counter the tester was built with."""
    state_bits = (analyzed.rdfa.n_states - 1).bit_length()
    residue_bits = (analyzed.g - 1).bit_length()
    counter = make_counter(tester.window_size, 0.5, analyzed.rdfa.n_states, analyzed.t)
    return sum(
        state_bits + residue_bits + counter.state_bit_cost()
        for cs in compact_summaries(tester).values()
        for _tr in cs.triples
    )


@pytest.mark.parametrize("pattern, n", [("a*", 64), ("ba*", 64), ("b(aa)*", 65), ("(aa)*|b(aa)*b", 64)])
def test_state_bits_equal_the_per_triple_sum_after_every_step(pattern, n):
    analyzed = build_analyzed(pattern)
    tester = two_sided_tester(analyzed, n, 0.5, rng=3)
    assert isinstance(tester, TwoSidedTester)
    rng = np.random.default_rng(8)
    for symbol in rng.choice(list("ab"), size=150, p=[0.9, 0.1]):
        tester.feed(symbol)
        assert tester.state_bits() == per_triple_bits(tester, analyzed)


def verdicts_and_bits(analyzed, n, stream, seed):
    tester = two_sided_tester(analyzed, n, 0.5, rng=seed)
    verdicts, bits = [], []
    for symbol in stream:
        tester.feed(symbol)
        verdicts.append(tester.decide())
        bits.append(tester.state_bits())
    return verdicts, bits


def test_same_seed_same_verdicts_and_space_independent_of_the_seed():
    analyzed = build_analyzed("b(aa)*")
    n = 33
    stream = "a" * 4 + "b" + "a" * 40 + "bb" + "a" * 30  # crosses the gap marks of the b segments
    first, first_bits = verdicts_and_bits(analyzed, n, stream, seed=5)
    again, again_bits = verdicts_and_bits(analyzed, n, stream, seed=5)
    assert first == again and first_bits == again_bits
    traces = {tuple(verdicts_and_bits(analyzed, n, stream, seed)[0]) for seed in range(8)}
    assert len(traces) > 1  # the verdicts do depend on the coins
    for seed in range(8):
        assert verdicts_and_bits(analyzed, n, stream, seed)[1] == first_bits

