from pathlib import Path

import numpy as np
import pytest
from conftest import AB, CORPUS, build_analyzed, build_dfa, build_partials, transient_partials, words_up_to
from reference import (
    CompactSummary,
    SummaryTriple,
    ThresholdCounter,
    compact_summaries,
    feed_all,
    prolong_compact_summary,
)

from regwin import (
    FingerprintTable,
    OneSidedTester,
    ProbabilisticCounter,
    OneSidedClass,
    analyze,
    compile_one_sided,
    composed_one_sided_tester,
    counter_copies,
    deterministic_tester,
    enumerate_path_descriptions,
    make_counter,
    monte_carlo,
    one_sided_class,
    prime_pool,
    realized_lengths,
    sample_prime,
    trivial_tester,
    two_sided_tester,
)
from regwin import testers_det
from regwin.testers_det import ExactWindowTester, FixedVerdictTester, PathSummaryTester
from regwin.testers_rand import TwoSidedTester, UnionTester


# --- probabilistic counter -----------------------------------------------------


def test_counter_copies_formula():
    # ceil(96 * ln(3*4) / 0.2^2), frozen from direct arithmetic
    assert counter_copies(4, 0.2) == 5964


def test_counter_cell_count_is_forced_odd():
    counter = ProbabilisticCounter(1000, 800, qsize=4)
    assert counter.copies == 5965
    assert counter.margin == pytest.approx(0.2)
    assert counter.per_step_p == pytest.approx(1.0 - (0.5 - 0.2 / 8) ** (1.0 / 1000))


def test_make_counter_marks():
    counter = make_counter(n=64, eps=0.5, qsize=2, t=0)
    assert counter.high_mark == 64
    assert counter.low_mark == pytest.approx(33.0)
    with pytest.raises(ValueError):
        make_counter(n=8, eps=0.5, qsize=2, t=3)  # marks collapse
    with pytest.raises(ValueError):
        make_counter(n=8, eps=0.25, qsize=2, t=3)  # eps*n below threshold


def test_counter_deterministic_limits():
    rng = np.random.default_rng(0)
    always = ProbabilisticCounter(10, 5, qsize=2, per_step_p=1.0)
    assert not always.reads_high(0)
    assert always.reads_high(always.advance(0, 1, rng))  # every cell set at once, odd majority

    never = ProbabilisticCounter(10, 5, qsize=2, per_step_p=0.0)
    count = 0
    for _ in range(50):
        count = never.advance(count, 1, rng)
    assert not never.reads_high(count)


def test_counter_monotone_under_increments():
    counter = ProbabilisticCounter(40, 20, qsize=2)
    rng = np.random.default_rng(5)
    count, was_high = 0, False
    for _ in range(120):
        count = counter.advance(count, 1, rng)
        if was_high:
            assert counter.reads_high(count)
        was_high = was_high or counter.reads_high(count)
    assert counter.reads_high(count)


def test_advance_matches_single_steps_in_the_deterministic_limit():
    bulk = ProbabilisticCounter(10, 5, qsize=2, per_step_p=1.0)
    rng = np.random.default_rng(0)
    single = 0
    for _ in range(7):
        single = bulk.advance(single, 1, rng)
    assert bulk.advance(0, 7, rng) == single == bulk.copies


def test_counter_statistics_smoke():
    rng = np.random.default_rng(11)
    high_errors = 0
    low_errors = 0
    trials = 400
    for _ in range(trials):
        counter = ProbabilisticCounter(1000, 800, qsize=4)
        count = counter.advance(0, 800, rng)
        high_errors += counter.reads_high(count)
        count = counter.advance(count, 200, rng)
        low_errors += not counter.reads_high(count)
    assert high_errors / trials <= 1 / 12 + 0.05
    assert low_errors / trials <= 1 / 12 + 0.05


def test_counters_hold_parameters_only():
    """A count is a plain int held by the tester's rows: neither counter
    class keeps a count or a generator, and the two-sided tester's uniforms
    are one endless stream with no refill check."""
    for cls in (ProbabilisticCounter, ThresholdCounter):
        assert not {"set_copies", "pulses", "rng"} & set(cls.__slots__), cls
        assert not any(hasattr(cls, name) for name in ("increment", "increment_many", "with_count", "copy")), cls
    source = (Path(__file__).resolve().parent.parent / "src" / "regwin" / "testers_rand.py").read_text("utf-8")
    assert "length_hint" not in source


# --- compact summaries ------------------------------------------------------------


def fresh_summary(q):
    return CompactSummary([SummaryTriple(q, 0, 0)])


def test_prolong_within_component():
    analyzed = build_analyzed("a*")
    q0 = analyzed.rdfa.initial
    counter = ThresholdCounter(4)
    cs = prolong_compact_summary(fresh_summary(q0), AB.code("a"), q0, analyzed, counter)
    assert len(cs.triples) == 1
    assert cs.triples[-1].state == q0 and cs.triples[-1].residue == 0
    assert not counter.reads_high(cs.triples[-1].count)
    cs.validate(analyzed)


def test_prolong_across_components():
    analyzed = build_analyzed("b(aa)*")
    assert analyzed.g == 2
    q0 = analyzed.rdfa.initial
    # find a crossing transition out of the initial component
    crossing = next(
        (p, a)
        for p in sorted(analyzed.scc.components[analyzed.scc.scc_id[q0]])
        for a in range(2)
        if not analyzed.same_scc(p, analyzed.rdfa.delta[p][a])
    )
    p, a = crossing
    target = analyzed.rdfa.delta[p][a]
    cs = prolong_compact_summary(fresh_summary(target), a, p, analyzed, ThresholdCounter(4))
    assert len(cs.triples) == 2
    assert cs.triples[0].state == target and cs.triples[0].residue == 1 % analyzed.g
    assert cs.triples[0].count == 1
    assert cs.triples[-1] == (p, 0, 0)
    cs.validate(analyzed)


def test_prolong_rejects_mismatched_transition():
    analyzed = build_analyzed("a*")
    q0 = analyzed.rdfa.initial
    sink = 1 - q0
    counter = ThresholdCounter(4)
    with pytest.raises(ValueError):
        prolong_compact_summary(fresh_summary(q0), AB.code("b"), q0, analyzed, counter)  # lands in sink
    prolong_compact_summary(fresh_summary(sink), AB.code("b"), q0, analyzed, counter)


def explicit_summary_facts(analyzed, full_stream, q):
    """(state, residue, staleness) triples oldest-first, recomputed from the
    explicit run of the machine on the whole stream."""
    states = analyzed.rdfa.run(full_stream, q)
    starts = [0]
    for i in range(1, len(states)):
        if not analyzed.same_scc(states[i - 1], states[i]):
            starts.append(i)
    return [(states[s], s % analyzed.g, s) for s in reversed(starts)]


def recomputed_decision(analyzed, facts, n, cutoff):
    for state, residue, staleness in facts:
        if staleness < cutoff:  # the stub counter reads low
            return (n - residue) % analyzed.g in analyzed.acc_mod[state]
    raise AssertionError("newest triple always has staleness 0")


@pytest.mark.parametrize(
    "pattern, symbols, n",
    [("a*", "ab", 3), ("(aa)*", "a", 4)],
)
def test_stub_summaries_match_explicit_runs_exhaustively(pattern, symbols, n):
    """Structural sweep on two-state machines: after every stream up to
    length 14, every maintained summary's segment starts, residues and
    staleness counts equal the explicit-run recomputation, and the decision
    matches the recomputed acceptance predicate."""
    analyzed = build_analyzed(pattern, symbols)
    alphabet = analyzed.rdfa.alphabet
    cutoff = max(1, n - analyzed.t)
    for stream in words_up_to(alphabet, 14):
        tester = TwoSidedTester(analyzed, n, 0.5, counter_factory=lambda: ThresholdCounter(cutoff))
        feed_all(tester, stream)
        full = alphabet.pad * n + stream
        for q, cs in compact_summaries(tester).items():
            cs.validate(analyzed)
            assert cs.triples == explicit_summary_facts(analyzed, full, q), (stream, q)
        facts = explicit_summary_facts(analyzed, full, analyzed.rdfa.initial)
        assert tester.decide() == recomputed_decision(analyzed, facts, n, cutoff), stream


@pytest.mark.parametrize("pattern, n", [("ba*", 4), ("b(aa)*", 5)])
def test_stub_summaries_match_explicit_runs_on_wider_machines(pattern, n):
    """Same structural sweep as above on machines with 3 and 5 states,
    where summaries really grow to several segments."""
    analyzed = build_analyzed(pattern)
    cutoff = max(1, n - analyzed.t)
    for stream in words_up_to(AB, 9):
        tester = TwoSidedTester(analyzed, n, 0.5, counter_factory=lambda: ThresholdCounter(cutoff))
        feed_all(tester, stream)
        full = AB.pad * n + stream
        for q, cs in compact_summaries(tester).items():
            cs.validate(analyzed)
            assert cs.triples == explicit_summary_facts(analyzed, full, q), (stream, q)


def shortest_accepting_suffix(partial, stream):
    """Defining quantity of the fingerprint: least suffix length driving
    the partial machine's start state to its final state."""
    return next((k for k in range(len(stream) + 1) if partial.machine.accepts(stream[len(stream) - k :])), None)


def test_one_sided_fingerprint_tracks_definition_at_every_step():
    (partial,) = build_partials("ba*")
    n = 4
    for prime in prime_pool(n):
        for stream in words_up_to(AB, 9):
            tester = OneSidedTester(FingerprintTable([partial], n), prime=prime)
            consumed = AB.pad * n
            for symbol in stream:
                tester.feed(symbol)
                consumed += symbol
                suffix_len = shortest_accepting_suffix(partial, consumed)
                reachable = partial.acc[partial.start].member(n)
                expected = (
                    reachable and suffix_len is not None and suffix_len % prime == n % prime
                )
                assert tester.decide() == expected, (prime, consumed)
                window = consumed[-n:]
                if partial.machine.accepts(window):  # members must pass for every prime
                    assert tester.decide()


def test_two_sided_member_accepts_with_high_frequency():
    analyzed = build_analyzed("a*")
    result = monte_carlo(
        lambda rng: two_sided_tester(analyzed, 32, 0.5, rng), "a" * 64, trials=30, master_seed=3
    )
    assert result.accept_rate == 1.0  # members of a* are accepted deterministically


def test_two_sided_far_rejects_with_high_frequency():
    analyzed = build_analyzed("a*")
    result = monte_carlo(
        lambda rng: two_sided_tester(analyzed, 32, 0.5, rng), "ba" * 32, trials=60, master_seed=4
    )
    assert result.accept_rate <= 1 / 3


def test_two_sided_falls_back_to_exact_for_tiny_windows():
    analyzed = build_analyzed("(aa)*", "a")  # t = 1
    tester = two_sided_tester(analyzed, 1, 0.5, rng=0)
    assert isinstance(tester, ExactWindowTester)


@pytest.mark.parametrize("eps", [0.0, -0.25, float("nan"), 1.5])
def test_two_sided_rejects_eps_outside_unit_interval(eps):
    with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
        two_sided_tester(build_analyzed("a*"), 64, eps, rng=0)


def test_two_sided_reproducible_given_seed():
    analyzed = build_analyzed("a*")
    decisions = []
    for _ in range(2):
        tester = two_sided_tester(analyzed, 16, 0.5, rng=np.random.default_rng(42))
        trace = []
        for symbol in "ab" * 24:
            tester.feed(symbol)
            trace.append(tester.decide())
        decisions.append(trace)
    assert decisions[0] == decisions[1]


def test_two_sided_with_period_two_and_component_changes():
    """b(aa)* has period 2 and real SCC crossings, so this exercises the
    residue arithmetic and staleness counters together."""
    analyzed = build_analyzed("b(aa)*")
    assert analyzed.g == 2
    n = 33  # realized lengths are odd
    member = monte_carlo(
        lambda rng: two_sided_tester(analyzed, n, 0.5, rng), "a" * 4 + "b" + "a" * 32, 60, 21
    )
    far = monte_carlo(
        lambda rng: two_sided_tester(analyzed, n, 0.5, rng), "bb" * n, 60, 22
    )
    assert member.accept_rate >= 2 / 3 - 0.05
    assert far.accept_rate <= 1 / 3 + 0.05


# --- path descriptions -------------------------------------------------------------


def test_path_descriptions_b_then_a():
    analyzed = build_analyzed("ba*")
    (final,) = analyzed.rdfa.finals
    partials = enumerate_path_descriptions(analyzed, final)
    assert len(partials) == 1
    partial = partials[0]
    assert partial.start == analyzed.rdfa.initial
    assert partial.final == final
    assert partial.singleton_word is None
    assert partial.length_slack == 1


def test_path_descriptions_finite_language_are_singletons():
    words = sorted(p.singleton_word for p in build_partials("ab"))
    assert words == ["ab"]


@pytest.mark.parametrize("pattern", ["ba*", "ab", "a|bb", "b(aa)*"])
def test_partial_union_recovers_language(pattern):
    dfa = build_dfa(pattern)
    partials = build_partials(pattern)
    for word in words_up_to(AB, 8):
        assert any(p.machine.accepts(word) for p in partials) == dfa.accepts(word), word


def test_path_descriptions_require_suffix_freeness():
    analyzed = build_analyzed("a*")
    (final,) = analyzed.rdfa.finals
    with pytest.raises(ValueError, match="suffix-free"):
        enumerate_path_descriptions(analyzed, final)


def test_path_descriptions_require_a_final_state():
    analyzed = build_analyzed("ba*")
    (other,) = set(range(analyzed.rdfa.n_states)) - analyzed.rdfa.finals - {analyzed.rdfa.initial}
    with pytest.raises(ValueError, match="not a final state"):
        enumerate_path_descriptions(analyzed, other)


# --- prime pool ------------------------------------------------------------------------


def test_prime_pool_at_2_16():
    pool = prime_pool(2**16)
    assert len(pool) == 51
    assert pool[-1] == 233
    assert pool[-1].bit_length() == 8


def test_prime_pool_floor_case():
    pool = prime_pool(2)
    assert len(pool) >= 2 and pool[:2] == [2, 3]


def test_prime_pool_hands_each_caller_its_own_list():
    """Each pool is computed once per size; a caller that changes its list
    changes no later caller's."""
    pool = prime_pool(2**10)
    pool[0] = 4
    pool.clear()
    fresh = prime_pool(2**10)
    assert len(fresh) == 33 and fresh[:3] == [2, 3, 5] and fresh[-1] == 137


def test_prime_pool_divisibility_bound():
    pool = prime_pool(2**10)
    dividing = [p for p in pool if 2**10 % p == 0]
    assert len(dividing) / len(pool) == 1 / len(pool) <= 1 / 3


def test_sample_prime_is_seed_deterministic():
    assert sample_prime(1024, rng=9) == sample_prime(1024, rng=9)
    assert sample_prime(1024, rng=9) in prime_pool(1024)


def test_skeleton_table_stays_within_its_size(monkeypatch):
    """Both skeleton testers read the one table size."""
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", 2)
    analyzed = build_analyzed("(aa)*|b(aa)*b")
    testers = [two_sided_tester(analyzed, 64, 0.25, rng=0), PathSummaryTester(analyzed, 64)]
    assert isinstance(testers[0], TwoSidedTester)
    for tester in testers:
        for symbol in "aabababbbaab" * 20:
            tester.feed(symbol)
            assert len(tester._nodes) <= 2


def _reachable_nodes(tester) -> list:
    """The nodes the tester reaches from its current one through slots."""
    reached, todo = {id(tester._node): tester._node}, [tester._node]
    while todo:
        for slot in todo.pop().slots:
            if slot is not None and id(slot[0]) not in reached:
                reached[id(slot[0])] = slot[0]
                todo.append(slot[0])
    return list(reached.values())


@pytest.mark.parametrize("table_size", [testers_det.SKELETON_TABLE_SIZE, 2, 3])
def test_skeleton_testers_reach_only_the_nodes_of_their_table(table_size, monkeypatch):
    """After every feed, run and power of a seeded mix, every node a
    skeleton tester can reach is in its table, which holds at most
    ``SKELETON_TABLE_SIZE`` nodes: eviction leaves nothing behind."""
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
    analyzed = build_analyzed("(aa)*|b(aa)*b")
    testers = [two_sided_tester(analyzed, 64, 0.25, rng=0), PathSummaryTester(analyzed, 64)]
    assert isinstance(testers[0], TwoSidedTester)
    rng = np.random.default_rng(5)
    for _ in range(300):
        op, word, k = rng.integers(3), str(rng.choice(["a", "b", "ab", "ba", "aab"])), int(rng.integers(1, 100))
        for tester in testers:
            if op == 0:
                tester.feed(word[0])
            elif op == 1:
                tester.feed_run(word, k)
            else:
                tester.feed_power(word, k)
            held = {id(node) for node in tester._nodes.values()}
            assert {id(node) for node in _reachable_nodes(tester)} <= held
            assert len(held) <= table_size


@pytest.mark.parametrize("table_size", [testers_det.SKELETON_TABLE_SIZE, 2, 3])
def test_skeleton_testers_sharing_a_table_step_as_testers_alone(table_size, monkeypatch):
    """Two testers of one class on one analysis and window size share one
    node table, and each empties it under the node the other holds.
    Interleaved over a seeded mix of feeds, runs and powers, each reads as
    the same tester on a table of its own (a fresh analysis)."""
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", table_size)
    pattern = "(aa)*|b(aa)*b"
    shared = analyze(build_dfa(pattern))
    for build in (lambda a, seed: PathSummaryTester(a, 64), lambda a, seed: two_sided_tester(a, 64, 0.25, rng=seed)):
        pair = [build(shared, seed) for seed in (0, 1)]
        alone = [build(analyze(build_dfa(pattern)), seed) for seed in (0, 1)]
        assert pair[0]._nodes is pair[1]._nodes and pair[0]._nodes is not alone[0]._nodes
        rng = np.random.default_rng(7)
        for _ in range(300):
            i, op = int(rng.integers(2)), int(rng.integers(3))
            word, k = str(rng.choice(["a", "b", "ab", "ba", "aab"])), int(rng.integers(1, 100))
            for tester in (pair[i], alone[i]):
                if op == 0:
                    tester.feed(word[0])
                elif op == 1:
                    tester.feed_run(word, k)
                else:
                    tester.feed_power(word, k)
            assert pair[i]._rows == alone[i]._rows
            assert (pair[i].decide(), pair[i].state_bits()) == (alone[i].decide(), alone[i].state_bits())
            assert len(shared.tables[(type(pair[i]), 64)]) <= table_size


# --- one-sided tester -------------------------------------------------------------------


def test_one_sided_member_accepted_for_every_prime():
    partials = build_partials("ba*")
    for prime in prime_pool(8):
        tester = OneSidedTester(FingerprintTable(partials, 8), prime=prime)
        feed_all(tester, "aaaaa" + "b" + "a" * 7)
        assert tester.decide(), prime


def test_one_sided_short_fingerprint_collision_fraction():
    # window a^8 (pads) after the stream b a^20: shortest accepting suffix
    # has length 21, so only primes dividing 21 - 8 = 13 may accept
    partials = build_partials("ba*")
    pool = prime_pool(8)
    accepting = []
    for prime in pool:
        tester = OneSidedTester(FingerprintTable(partials, 8), prime=prime)
        feed_all(tester, "b" + "a" * 20)
        if tester.decide():
            accepting.append(prime)
    assert accepting == [13]
    assert len(accepting) / len(pool) <= 1 / 3


def test_one_sided_rejects_surely_without_the_marker_symbol():
    partials = build_partials("ba*")
    for prime in prime_pool(8):
        tester = OneSidedTester(FingerprintTable(partials, 8), prime=prime)
        feed_all(tester, "a" * 30)  # no b anywhere: shortest suffix is infinite
        assert not tester.decide()


def test_one_sided_singleton_language():
    partials = build_partials("ab")
    tester = OneSidedTester(FingerprintTable(partials, 2), rng=0)
    feed_all(tester, "bbab")
    assert tester.decide()
    feed_all(tester, "b")
    assert not tester.decide()


def test_one_sided_small_window_fallback_stays_exact():
    partials = build_partials("b(aa)*")
    n = 1  # below s + |Q_P| for the real partial machine
    tester = OneSidedTester(FingerprintTable(partials, n), rng=1)
    feed_all(tester, "b")
    assert tester.decide()
    feed_all(tester, "a")
    assert not tester.decide()


def test_one_sided_state_bits_track_pool_prime_size():
    """Measured space across four orders of magnitude of window size: the
    table costs one prime-sized entry per partial-machine state, so bits are
    an affine function of the largest pool prime's bit length (which is what
    grows like log log n).  Values frozen from the prime sieve."""
    partials = build_partials("ba*")
    observed = []
    for exponent in (8, 12, 16, 20):
        n = 2**exponent
        prime = max(prime_pool(n))
        tester = OneSidedTester(FingerprintTable(partials, n), prime=prime)
        states = sum(len(p.states) for p in partials)
        assert tester.state_bits() == prime.bit_length() * (1 + states) + states
        observed.append(tester.state_bits())
    assert observed == [23, 26, 26, 29]
    assert observed == sorted(observed)


# --- unions ---------------------------------------------------------------------------------


def test_union_accepts_when_any_part_accepts():
    ends_a_lengths = realized_lengths(build_dfa("(a|b)*a"))
    ba_partials = build_partials("ba*")
    union = UnionTester(
        [trivial_tester(AB, ends_a_lengths, 4), OneSidedTester(FingerprintTable(ba_partials, 4), rng=0)]
    )
    feed_all(union, "baaa")
    assert union.decide()


def test_empty_union_is_refused():
    """A union with no tester has no alphabet to check its input against."""
    with pytest.raises(ValueError, match="at least one"):
        UnionTester([])


def test_union_state_bits_are_the_part_sum_after_every_feed():
    table = FingerprintTable(build_partials("ba*"), 8)
    union = UnionTester([OneSidedTester(table, rng=0), OneSidedTester(table, rng=1)])
    parts = union._testers
    assert len(parts) == 2
    for symbol in "aabaaaaaaabbab":
        union.feed(symbol)
        assert union.state_bits() == sum(part.state_bits() for part in parts)


# --- the composed builder ---------------------------------------------------------------------


@pytest.mark.parametrize("pattern", ["ab|ba*", "aab|b(aa)*"])
def test_one_sided_tester_builds_no_single_word_part_at_a_large_window(pattern):
    """A single-word part accepts only at n = |w|; at n = 2^20 + 1 it used
    to be an exact window of n symbols, about 2n state bits."""
    n = 2**20 + 1
    tester = compile_one_sided(build_dfa(pattern), n)(0)
    assert isinstance(tester, OneSidedTester) and not tester._exact
    assert tester.state_bits() < 64
    for symbol, member in [("b", True), ("a", False)]:  # b a^(n-1) is a member of both; a^n of neither
        tester.feed(symbol)
        tester.feed_power("a", n - 1)
        assert tester.decide() == member


def test_one_sided_tester_with_no_part_left_rejects_every_window():
    """``b(aa)*`` has only odd lengths, so at an even n no part can accept."""
    tester = compile_one_sided(build_dfa("b(aa)*"), 64)(0)
    assert isinstance(tester, OneSidedTester) and tester.state_bits() == 1
    assert tester._parts == () and tester._exact == [] and tester.values == [] and tester.prime is None
    feed_all(tester, "b" + "a" * 63)
    assert not tester.decide()
    with pytest.raises(ValueError):
        tester.feed("z")


@pytest.mark.parametrize("pattern", ["ba*", "b(aa)*", "ab|ba*", "((a|b)(a|b))*b|ba*"])
def test_compile_one_sided_builds_one_tester_drawing_one_prime(pattern):
    """Never a union: one ``OneSidedTester`` over the partial machines of
    every transient final, which draws its one prime from the caller's
    generator as a tester built over them directly does.  Where the
    recurrent finals' lengths hold n (odd n for ``((a|b)(a|b))*b``) it is
    their trivial tester instead, which accepts every window and draws
    nothing."""
    dfa = build_dfa(pattern)
    partials = transient_partials(analyze(dfa))
    for n in (64, 65):
        for seed in range(5):
            rng, master = np.random.default_rng(seed), np.random.default_rng(seed)
            tester = compile_one_sided(dfa, n)(rng)
            if pattern.startswith("((a|b)(a|b))*b") and n % 2:
                assert isinstance(tester, FixedVerdictTester) and tester.decide()
            else:
                direct = OneSidedTester(FingerprintTable(partials, n), master)
                assert isinstance(tester, OneSidedTester)
                chains = [[(part.final, part.states) for part in t._parts] for t in (tester, direct)]
                assert tester.prime == direct.prime and chains[0] == chains[1]
            assert int(rng.integers(2**62)) == int(master.integers(2**62))


def test_compile_one_sided_never_returns_a_union():
    languages = [(pattern, "ab") for _, pattern in CORPUS]
    languages += [("ab|ba*", "ab"), ("aab|b(aa)*", "ab"), ("(|c|cc|ccc|cccc|ccccc)ba*", "abc")]
    compiled = 0
    for pattern, symbols in languages:
        dfa = build_dfa(pattern, symbols)
        if one_sided_class(dfa) is OneSidedClass.LOG_LOWER_BOUND:
            continue
        for n in (8, 64, 255, 1023):
            assert not isinstance(compile_one_sided(dfa, n)(0), UnionTester), (pattern, n)
            compiled += 1
    assert compiled >= 4 * 8


def test_composed_tester_for_suffix_free_language():
    dfa = build_dfa("ba*")
    tester = composed_one_sided_tester(dfa, 8, rng=7)
    feed_all(tester, "b" + "a" * 7)
    assert tester.decide()


def test_composed_tester_for_trivial_language_is_constant_space():
    tester = composed_one_sided_tester(build_dfa("(a|b)*a"), 8, rng=7)
    assert isinstance(tester, FixedVerdictTester)
    assert tester.decide()


def test_composed_tester_refuses_log_lower_bound_languages():
    with pytest.raises(ValueError, match="suffix-free"):
        composed_one_sided_tester(build_dfa("a*"), 8, rng=7)


# --- window sizes ---------------------------------------------------------------------------


NEGATIVE_WINDOW_CONSTRUCTORS = {
    "trivial": lambda n: trivial_tester(AB, realized_lengths(build_dfa("a*")), n),
    "path-summary": lambda n: PathSummaryTester(build_analyzed("a*"), n),
    "deterministic": lambda n: deterministic_tester(build_analyzed("a*"), n),
    "two-sided-stub": lambda n: TwoSidedTester(
        build_analyzed("a*"), n, 0.5, counter_factory=lambda: ThresholdCounter(2)
    ),
    "two-sided": lambda n: two_sided_tester(build_analyzed("a*"), n, 0.5, rng=0),
    "one-sided": lambda n: OneSidedTester(FingerprintTable(build_partials("ba*"), n), prime=3),
    "composed-constant": lambda n: composed_one_sided_tester(build_dfa("(a|b)*a|ba*"), n, rng=0),
    "composed-loglog": lambda n: composed_one_sided_tester(build_dfa("ba*"), n, rng=0),
}


@pytest.mark.parametrize("kind", NEGATIVE_WINDOW_CONSTRUCTORS)
def test_every_tester_rejects_a_negative_window(kind):
    with pytest.raises(ValueError, match="^window size must be nonnegative$"):
        NEGATIVE_WINDOW_CONSTRUCTORS[kind](-1)
    assert NEGATIVE_WINDOW_CONSTRUCTORS[kind](0).window_size == 0
