import ast
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import AB, CORPUS, build_analyzed, build_dfa, calls_feeding, complete_dfas, last_n, make_call, words_up_to
from reference import (
    WindowBuffer,
    feed_all,
    path_summaries,
    path_summary_feed,
    path_summary_of,
    path_summary_verdict,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regwin import (
    Alphabet,
    Dfa,
    EventuallyPeriodicSet,
    Rdfa,
    StateLimitExceeded,
    analyze,
    deterministic_tester,
    exact_tester,
    prefix_distance_to_language,
    realized_lengths,
    reverse_to_rdfa,
    trivial_tester,
)
from regwin.testers_det import ExactWindowTester, PathSummaryTester


# --- exact baseline -----------------------------------------------------------


def test_exact_tester_examples():
    tester = exact_tester(build_dfa("a*"), 3)
    feed_all(tester, "baaa")
    assert tester.decide()  # window aaa

    tester = exact_tester(build_dfa("a*"), 3)
    feed_all(tester, "baa")
    assert not tester.decide()  # window baa

    # empty stream over the unary alphabet: the pad-filled window is aaaa
    tester = exact_tester(build_dfa("(aa)*", "a"), 4)
    assert tester.decide()


def test_exact_tester_respects_pad_override():
    # same language, opposite pad: the initial window flips membership
    accept_pad = exact_tester(build_dfa("(aa)*", "ab"), 4)
    assert accept_pad.decide()  # window aaaa
    reject_pad = exact_tester(build_dfa("(aa)*", "ab", "b"), 4)
    assert not reject_pad.decide()  # window bbbb


def test_exact_tester_works_on_rdfa_too():
    rdfa = reverse_to_rdfa(build_dfa("ba*"))
    tester = exact_tester(rdfa, 4)
    feed_all(tester, "xbaaa".replace("x", "a"))
    assert tester.decide()


def test_exact_tester_space_is_linear():
    assert exact_tester(build_dfa("a*"), 64).state_bits() == 64
    assert exact_tester(build_dfa("a*"), 128).state_bits() == 128


def test_exact_tester_rejects_negative_window():
    with pytest.raises(ValueError, match="nonnegative"):
        exact_tester(build_dfa("a*"), -1)


@st.composite
def exact_cases(draw):
    """A complete Dfa or Rdfa with 1-6 states over 1-3 symbols (any
    initial state and pad), a window of 0-12 and a stream longer than three
    windows, so every run rebuilds the front several times; plus a stream
    position at which a foreign symbol is fed."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    machine_class = draw(st.sampled_from([Dfa, Rdfa]))
    alphabet = Alphabet.from_string(symbols, draw(st.sampled_from(symbols)))
    machine = machine_class(alphabet, delta, draw(state), draw(st.sets(state)))
    n = draw(st.integers(0, 12))
    stream = draw(st.text(alphabet=symbols, min_size=3 * n + 1, max_size=3 * n + 12))
    foreign_at = draw(st.integers(0, len(stream) - 1))
    foreign = draw(st.sampled_from(["z", "", symbols + "z", "ab"]))
    return machine, n, stream, foreign_at, foreign


@settings(max_examples=400, deadline=None, derandomize=True)
@given(exact_cases())
def test_exact_tester_matches_the_window_buffer_after_every_feed(case):
    machine, n, stream, foreign_at, foreign = case
    symbol_bits = max(1, math.ceil(math.log2(len(machine.alphabet))))
    tester = exact_tester(machine, n)
    window = WindowBuffer(machine.alphabet, n)
    assert tester.decide() == machine.accepts(window.contents())
    for i, symbol in enumerate(stream):
        if i == foreign_at:
            with pytest.raises(ValueError):
                tester.feed(foreign)
            assert tester.decide() == machine.accepts(window.contents())
        tester.feed(symbol)
        window.feed(symbol)
        assert tester.decide() == machine.accepts(window.contents()), (stream[: i + 1], n)
        assert tester.state_bits() == n * symbol_bits


# --- trivial-language tester -----------------------------------------------------


def test_trivial_tester_always_accepts_on_realized_lengths():
    lengths = realized_lengths(build_dfa("(a|b)*a"))
    tester = trivial_tester(AB, lengths, 5)
    feed_all(tester, "bbbbb")
    assert tester.decide()
    assert tester.state_bits() == 1


def test_trivial_tester_rejects_unrealized_length():
    evens = EventuallyPeriodicSet.from_member_fn(lambda x: x % 2 == 0, 0, 2)
    tester = trivial_tester(AB, evens, 7)
    feed_all(tester, "aaaa")
    assert not tester.decide()


def test_trivial_tester_universal():
    lengths = realized_lengths(build_dfa("(a|b)*"))
    for n in (0, 3, 9):
        assert trivial_tester(AB, lengths, n).decide()


def test_trivial_tester_rejects_symbols_outside_the_alphabet():
    tester = trivial_tester(AB, realized_lengths(build_dfa("(a|b)*")), 4)
    for symbol in ("zz", "c", ""):
        with pytest.raises(ValueError, match="not in the alphabet"):
            tester.feed(symbol)


# --- reference path summaries -----------------------------------------------------


def test_path_summary_a_star_crossing():
    analyzed = build_analyzed("a*")
    q0 = analyzed.rdfa.initial
    summary = path_summary_of("baa", q0, analyzed)
    sink = 1 - q0
    assert summary.pairs == ((0, sink), (3, q0))
    summary.validate(analyzed)


def test_path_summary_single_component():
    analyzed = build_analyzed("a*")
    q0 = analyzed.rdfa.initial
    assert path_summary_of("aaa", q0, analyzed).pairs == ((3, q0),)


def test_path_summary_empty_window():
    analyzed = build_analyzed("a*")
    q0 = analyzed.rdfa.initial
    assert path_summary_of("", q0, analyzed).pairs == ((0, q0),)


# --- deterministic tester -----------------------------------------------------------


def test_deterministic_tester_accepts_member():
    tester = deterministic_tester(build_analyzed("a*"), 4)
    feed_all(tester, "aaaa")
    assert tester.decide()


def test_deterministic_tester_rejects_far_window():
    analyzed = build_analyzed("a*")
    tester = deterministic_tester(analyzed, 4)
    feed_all(tester, "abaa")
    assert not tester.decide()
    # consistency with the analysis gap: the rejected window is farther than t
    dist = prefix_distance_to_language("abaa", build_dfa("a*"))
    assert dist == 2 and dist > analyzed.t == 0


def test_deterministic_tester_even_as():
    analyzed = build_analyzed("(aa)*", "a")
    tester = deterministic_tester(analyzed, 4)
    feed_all(tester, "aaaa")
    assert tester.decide()
    summary = path_summaries(tester)[analyzed.rdfa.initial]
    assert summary.pairs == ((4, analyzed.rdfa.initial),)


def test_deterministic_tester_falls_back_below_state_count():
    analyzed = build_analyzed("ba*")  # 3 states
    assert isinstance(deterministic_tester(analyzed, 2), ExactWindowTester)
    assert isinstance(deterministic_tester(analyzed, 3), PathSummaryTester)


@pytest.mark.parametrize("ident, pattern", CORPUS)
def test_streaming_summaries_match_reference_everywhere(ident, pattern):
    """Every maintained summary equals the non-streaming recomputation after
    every feed, for every short stream."""
    analyzed = build_analyzed(pattern)
    n_states = analyzed.rdfa.n_states
    for n in range(n_states, 7):
        for stream in words_up_to(AB, 8):
            tester = deterministic_tester(analyzed, n)
            for i, symbol in enumerate(stream):
                tester.feed(symbol)
                window = last_n(n, stream[: i + 1], AB.pad)
                for q, summary in path_summaries(tester).items():
                    expected = path_summary_of(window, q, analyzed)
                    assert summary.pairs == expected.pairs, (stream[: i + 1], n, q)
                    summary.validate(analyzed)


@pytest.mark.parametrize("ident, pattern", CORPUS[:6])
def test_deterministic_tester_decisions_small_sweep(ident, pattern):
    analyzed = build_analyzed(pattern)
    dfa = build_dfa(pattern)
    for n in range(0, 6):
        for stream in words_up_to(AB, 7):
            tester = deterministic_tester(analyzed, n)
            feed_all(tester, stream)
            window = last_n(n, stream, AB.pad)
            decision = tester.decide()
            if dfa.accepts(window):
                assert decision, (stream, n)
            if decision:
                assert prefix_distance_to_language(window, dfa) <= analyzed.t, (stream, n)


@st.composite
def det_cases(draw):
    """A complete DFA with 1-6 states over 1-3 symbols (any initial state and
    pad), a window of 0-12 and a stream that slides the window over more
    than its own length."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 6))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    alphabet = Alphabet.from_string(symbols, draw(st.sampled_from(symbols)))
    dfa = Dfa(alphabet, delta, draw(state), draw(st.sets(state)))
    n = draw(st.integers(0, 12))
    stream = draw(st.text(alphabet=symbols, min_size=n + 1, max_size=2 * n + 8))
    return dfa, n, stream


@settings(max_examples=300)
@given(det_cases())
def test_deterministic_tester_is_exact_up_to_t_on_random_machines(case):
    """After every feed, the path-summary tester holds the reference summary
    of every start state and counts its pairs' bits, and both it and
    ``deterministic_tester`` (an exact tester below |Q|) accept members and
    reject windows at prefix distance beyond t."""
    dfa, n, stream = case
    try:
        analyzed = analyze(dfa)
    except StateLimitExceeded:
        assume(False)
    rdfa = analyzed.rdfa
    pair_bits = n.bit_length() + (rdfa.n_states - 1).bit_length()
    summarizing = PathSummaryTester(analyzed, n)
    chosen = deterministic_tester(analyzed, n)
    for i in range(len(stream) + 1):
        if i:
            summarizing.feed(stream[i - 1])
            chosen.feed(stream[i - 1])
        window = last_n(n, stream[:i], dfa.alphabet.pad)
        summaries = path_summaries(summarizing)
        assert summaries == {q: path_summary_of(window, q, analyzed) for q in range(rdfa.n_states)}, (window, n)
        assert summarizing.state_bits() == pair_bits * sum(len(s.pairs) for s in summaries.values())
        member = dfa.accepts(window)
        far = prefix_distance_to_language(window, dfa) > analyzed.t
        for tester in (summarizing, chosen):
            if member:
                assert tester.decide(), (window, n, type(tester).__name__)
            if far:
                assert not tester.decide(), (window, n, type(tester).__name__)


@pytest.mark.parametrize("ident, pattern", CORPUS)
def test_rows_follow_the_step_in_ages_over_ten_windows(ident, pattern):
    """Over seeded streams of 10(n + 1) symbols at n = |Q|, 8 and 64, which
    rebase the clock ten times, the rows after every feed are the
    reference step in ages of the rows before, the verdict is the
    reference one on those rows, the state bits count their entries of
    age at most n, and the clock and births stay in their bounds."""
    analyzed = build_analyzed(pattern)
    n_states, code = analyzed.rdfa.n_states, analyzed.rdfa.alphabet.code
    for n in sorted({n_states, 8, 64}):
        tester = PathSummaryTester(analyzed, n)
        pair_bits = n.bit_length() + (n_states - 1).bit_length()
        rows = tester._rows
        for symbol in np.random.default_rng(n).choice(list(AB.symbols), 10 * (n + 1)).tolist():
            tester.feed(symbol)
            rows = path_summary_feed(analyzed, rows, code(symbol), n)
            assert tester._rows == rows, (n, symbol)
            assert tester.decide() == path_summary_verdict(analyzed, rows, n), n
            live = sum(age <= n for row in rows for _s, _r, age in row)
            assert tester.state_bits() == pair_bits * (live + n_states), n
            now = tester._now
            assert 0 <= now <= n and all(-(n + 1) <= birth < now for birth in tester._counts), n


@settings(max_examples=150)
@given(complete_dfas(), st.integers(0, 12), st.data())
def test_clock_and_births_stay_bounded(dfa, n, data):
    """Over a mix of feeds, powers and runs five times longer than n + 1,
    the clock stays in [0, n] and every birth in [-(n + 1), now), so
    every stored value is within n + 1 of 0; the state bits pay for the
    clock and every live entry; and the state is the one symbol-by-symbol
    feeds reach."""
    try:
        analyzed = analyze(dfa)
    except StateLimitExceeded:
        assume(False)
    calls = data.draw(calls_feeding(dfa.alphabet.symbols, 5 * (n + 1)))
    pair_bits = n.bit_length() + (analyzed.rdfa.n_states - 1).bit_length()
    tester, stepped = PathSummaryTester(analyzed, n), PathSummaryTester(analyzed, n)
    for call in calls:
        make_call(tester, *call)
        feed_all(stepped, call[1] * call[2])
        now, births = tester._now, tester._counts
        assert 0 <= now <= n, call
        assert all(-(n + 1) <= birth < now for birth in births), (call, now, births)
        live = sum(birth >= now - n for birth in births)
        assert n.bit_length() + pair_bits * live <= tester.state_bits(), call
        assert (tester._rows, tester.decide()) == (stepped._rows, stepped.decide()), call


def test_state_bits_grow_with_log_window():
    analyzed = build_analyzed("ba*")
    sizes = [2**k for k in range(6, 12)]
    bits = []
    for n in sizes:
        tester = deterministic_tester(analyzed, n)
        feed_all(tester, "b" + "a" * 16)
        bits.append(tester.state_bits())
    assert bits == sorted(bits)
    # pair count is capped by the state count, so bits per doubling grow by
    # at most the number of summaries times one bit per pair
    cap = analyzed.rdfa.n_states**2 * (math.ceil(math.log2(sizes[-1])) + 3)
    assert bits[-1] <= cap


# bits per log2 n of the b(aa)* tester at n = 2^10 + 1: 126 bits after b^n,
# its largest state, over log2 n = 10.0014
DET_BITS_PER_LOG_N = 12.6


@pytest.mark.parametrize("k", [20, 40, 62])
def test_deterministic_tester_at_windows_up_to_2_62(monkeypatch, k):
    """Built without a feed, the b(aa)* tester accepts b a^(n-1) and
    rejects b^n at n = 2^k + 1, in at most c log2 n state bits."""
    n = 2**k + 1
    feeds = []
    monkeypatch.setattr(PathSummaryTester, "feed", lambda tester, symbol: feeds.append(symbol))
    analyzed = analyze(build_dfa("b(aa)*"))
    member, far = deterministic_tester(analyzed, n), deterministic_tester(analyzed, n)
    assert isinstance(member, PathSummaryTester) and feeds == []
    monkeypatch.undo()
    bits = [member.state_bits()]
    member.feed("b")
    member.feed_power("a", n - 1)
    far.feed_power("b", n)
    assert member.decide() and not far.decide()
    bits += [member.state_bits(), far.state_bits()]
    assert max(bits) <= DET_BITS_PER_LOG_N * math.log2(n)


# --- structure ----------------------------------------------------------------------


def _module_tree(module: str) -> ast.Module:
    return ast.parse((Path(__file__).resolve().parent.parent / "src" / "regwin" / module).read_text("utf-8"))


def _window_loops(module: str) -> list[str]:
    """Where a source file of the regwin package loops over
    ``range(<window size>)``: ``module:Class.method`` or ``module:function``."""
    scopes = []
    for node in _module_tree(module).body:
        if isinstance(node, ast.ClassDef):
            scopes += [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            scopes.append((node.name, node))
    return [
        f"{module}:{name}"
        for name, scope in scopes
        for loop in ast.walk(scope)
        if isinstance(loop, ast.For)
        and isinstance(loop.iter, ast.Call)
        and getattr(loop.iter.func, "id", None) == "range"
        and "window_size" in ast.unparse(loop.iter)
    ]


def test_one_pad_warm_up_loop():
    """Every summarizing tester starts on its pad window through one
    closed-form ``feed_power``, so no loop over the window remains."""
    loops = _window_loops("testers_det.py") + _window_loops("testers_rand.py")
    assert loops == []


def test_one_row_rule():
    """The skeleton engine (interning, slots, the rows' closed-form
    ``feed_power``) is written once, in the base both summary testers
    subclass."""
    engine = ("_intern", "_slot", "feed_power")
    classes = {
        node.name: node
        for module in ("testers_det.py", "testers_rand.py")
        for node in _module_tree(module).body
        if isinstance(node, ast.ClassDef)
    }
    methods = {name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)} for name, node in classes.items()}
    owners = {name for name, defined in methods.items() if {"_intern", "_slot"} & defined}
    assert len(owners) == 1
    (base,) = owners
    assert set(engine) <= methods[base]
    for tester in ("PathSummaryTester", "TwoSidedTester"):
        assert [ast.unparse(b) for b in classes[tester].bases] == [base]
        assert not set(engine) & methods[tester], tester
