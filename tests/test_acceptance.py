"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values are frozen from brute-force oracles (exhaustive
enumeration, distance DP, frontier search); tolerances are pinned here and
nowhere else.
"""

import math
import random

import numpy as np
from conftest import AB, CORPUS, build_analyzed, build_dfa, build_partials, last_n, words_up_to
from reference import check_t_simulation, feed_all

from regwin import (
    Dfa,
    FingerprintTable,
    OneSidedClass,
    OneSidedTester,
    ProbabilisticCounter,
    analyze,
    compile_one_sided,
    compute_period_info,
    deterministic_tester,
    distance_to_language,
    equivalent,
    exact_tester,
    find_excluded_factor,
    is_suffix_free,
    is_trivial,
    minimize,
    monte_carlo,
    one_sided_class,
    prefix_distance_to_language,
    prime_pool,
    rdfa_to_dfa,
    realized_lengths,
    reverse_to_rdfa,
    scc_decompose,
    trial_seed,
    trim_reachable,
    trivial_tester,
    two_sided_tester,
    uniformize_period,
)
from regwin.automata import Rdfa
from regwin.testers_rand import UnionTester

EXHAUSTIVE_STREAM_LEN = 7
SAMPLED_STREAMS_PER_COMBO = 650  # 12 languages x 13 window sizes -> ~1e5 samples
MAX_WINDOW = 12
MAX_STREAM_LEN = 20


def brute_accept_length_flags(rdfa, q, up_to):
    flags = []
    frontier = {q}
    for _ in range(up_to + 1):
        flags.append(bool(frontier & rdfa.finals))
        frontier = {rdfa.delta[p][a] for p in frontier for a in range(len(rdfa.alphabet))}
    return flags


# --- criterion 1: deterministic tester is exhaustively sound and complete -------


def test_criterion_1_deterministic_tester_exactness():
    violations = 0
    streams_checked = 0
    for ident, pattern in CORPUS:
        dfa = build_dfa(pattern)
        analyzed = build_analyzed(pattern)
        rng = random.Random(hash((ident, "crit1")) & 0xFFFF)
        for n in range(MAX_WINDOW + 1):
            sampled = [
                "".join(rng.choice("ab") for _ in range(rng.randint(EXHAUSTIVE_STREAM_LEN + 1, MAX_STREAM_LEN)))
                for _ in range(SAMPLED_STREAMS_PER_COMBO)
            ]
            for stream in list(words_up_to(AB, EXHAUSTIVE_STREAM_LEN)) + sampled:
                tester = deterministic_tester(analyzed, n)
                feed_all(tester, stream)
                window = last_n(n, stream, AB.pad)
                decision = tester.decide()
                streams_checked += 1
                if dfa.accepts(window) and not decision:
                    violations += 1
                elif decision and prefix_distance_to_language(window, dfa) > analyzed.t:
                    violations += 1
    assert violations == 0
    assert streams_checked >= 100_000
    print(f"ACCEPTANCE 1 PASS: deterministic tester exact on {streams_checked} stream runs, 0 violations")


# --- criterion 2: deterministic space scales with log n -------------------------


def test_criterion_2_deterministic_space_scaling():
    sizes = [2**k for k in (8, 10, 12, 14, 16)]
    for ident, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        rng = random.Random(17)
        suffix = "".join(rng.choice("ab") for _ in range(64))
        bits = []
        n_states = analyzed.rdfa.n_states
        for n in sizes:
            tester = deterministic_tester(analyzed, n)
            feed_all(tester, suffix)
            bits.append(tester.state_bits())
            cap = n_states**2 * (math.log2(n) + math.log2(n_states) + 2)
            assert bits[-1] <= cap, (ident, n)
        assert bits == sorted(bits), ident  # monotone, exactly
        xs = np.array([math.log2(n) for n in sizes])
        ys = np.array(bits, dtype=float)
        design = np.vstack([np.ones_like(xs), xs]).T
        (a, b), *_ = np.linalg.lstsq(design, ys, rcond=None)
        residual = np.abs(design @ np.array([a, b]) - ys) / ys
        assert residual.max() < 0.05, (ident, bits)
    print(f"ACCEPTANCE 2 PASS: state bits fit a + b*log2(n) within 5% for {len(CORPUS)} languages")


# --- criterion 3: two-sided tester guarantees and constant space ------------------


def test_criterion_3_two_sided_tester():
    analyzed = build_analyzed("a*")
    trials = 500
    eps = 0.5
    bits = {}
    for n in (64, 256):
        member = monte_carlo(
            lambda rng: two_sided_tester(analyzed, n, eps, rng), "a" * (2 * n), trials, master_seed=101
        )
        far = monte_carlo(
            lambda rng: two_sided_tester(analyzed, n, eps, rng), "ba" * n, trials, master_seed=202
        )
        far_window = last_n(n, "ba" * n, AB.pad)
        assert prefix_distance_to_language(far_window, build_dfa("a*")) > eps * n
        assert member.accept_rate >= 2 / 3 - 0.05, (n, member.accept_rate)
        assert 1 - far.accept_rate >= 2 / 3 - 0.05, (n, far.accept_rate)
        bits[n] = (member.max_state_bits, far.max_state_bits)
    assert bits[64] == bits[256], bits  # space independent of the window size
    print(
        "ACCEPTANCE 3 PASS: two-sided tester ok at n=64,256 "
        f"(state bits {bits[64]} at both sizes, {trials} trials)"
    )


# --- criterion 4: probabilistic counter error bounds --------------------------------


def test_criterion_4_counter_contract():
    trials = 10_000
    high_at_low_mark = 0
    low_at_high_mark = 0
    for i in range(trials):
        rng = np.random.default_rng(trial_seed(404, i))
        counter = ProbabilisticCounter(1000, 800, qsize=4)
        count = counter.advance(0, 800, rng)
        high_at_low_mark += counter.reads_high(count)
        count = counter.advance(count, 200, rng)
        low_at_high_mark += not counter.reads_high(count)
    bound = 1 / 12 + 0.02
    assert high_at_low_mark / trials <= bound, high_at_low_mark
    assert low_at_high_mark / trials <= bound, low_at_high_mark
    print(
        "ACCEPTANCE 4 PASS: counter errors "
        f"{high_at_low_mark / trials:.4f} (at low mark) and {low_at_high_mark / trials:.4f} "
        f"(at high mark) within {bound:.4f} over {trials} trials"
    )


# --- criterion 5: one-sided tester completeness, soundness and space ------------------


def test_criterion_5_one_sided_tester():
    dfa = build_dfa("ba*")
    partials = build_partials("ba*")
    gap = max(p.soundness_gap for p in partials)
    for n in (64, 1024, 2**16):
        pool = prime_pool(n)
        member_stream = "a" * 5 + "b" + "a" * (n - 1)
        far_stream = "b" + "a" * 20

        for prime in pool:  # completeness is exact: every prime must accept
            tester = OneSidedTester(FingerprintTable(partials, n), prime=prime)
            feed_all(tester, member_stream)
            assert tester.decide(), (n, prime)

        far_window = last_n(n, far_stream, AB.pad)
        assert prefix_distance_to_language(far_window, dfa) > gap
        accepting = 0
        for prime in pool:
            tester = OneSidedTester(FingerprintTable(partials, n), prime=prime)
            feed_all(tester, far_stream)
            accepting += tester.decide()
        assert accepting <= len(pool) / 3, (n, accepting)

    pool_bits = {n: max(prime_pool(n)).bit_length() for n in (2**8, 2**12, 2**16, 2**20)}
    assert pool_bits[2**16] == 8
    assert sorted(pool_bits.values()) == list(pool_bits.values())
    assert pool_bits[2**20] - pool_bits[2**8] <= 2  # log-log-like growth over 12 doublings
    print(
        "ACCEPTANCE 5 PASS: one-sided tester exact completeness and <=1/3 pool collisions "
        f"at n=64,1024,65536 (gap c={gap}); pool prime bits {pool_bits}"
    )


def test_criterion_5_one_sided_tester_over_six_transient_finals():
    """One prime for a union of six suffix-free parts: the compiled tester
    of ``(|c|cc|ccc|cccc|ccccc)ba*`` draws from the first 3*6*7 = 126
    primes, and the window c^58 b a^5 at n = 64, 54 substitutions from
    the language, passes for at most a third of them (the exact law, over
    the whole pool)."""
    dfa = build_dfa("(|c|cc|ccc|cccc|ccccc)ba*", "abc")
    n, window = 64, "c" * 58 + "b" + "a" * 5
    assert len({partial.final for partial in build_partials("(|c|cc|ccc|cccc|ccccc)ba*", "abc")}) == 6
    assert distance_to_language(window, dfa) == 54
    pool = prime_pool(n, 6)
    accepting = [prime for prime in pool if feed_all(compile_one_sided(dfa, n, prime=prime)(0), window).decide()]
    share = len(accepting) / len(pool)
    assert share <= 1 / 3, accepting
    print(
        "ACCEPTANCE 5 PASS: one prime over six transient finals; the 54-far window c^58 b a^5 "
        f"at n=64 passes {len(accepting)}/{len(pool)} = {share:.3f} of the pool (<= 1/3)"
    )


# --- criterion 6: classifiers match definitional brute force ----------------------------


def max_slice_distance(dfa, length):
    distances = [
        distance_to_language("".join(w), dfa)
        for w in words_up_to(dfa.alphabet, length)
        if len(w) == length
    ]
    finite = [d for d in distances if d != math.inf]
    return max(finite) if finite else None


def brute_suffix_free(dfa, max_len):
    for w in words_up_to(dfa.alphabet, max_len):
        if not dfa.accepts(w):
            continue
        for cut in range(1, len(w) + 1):
            if dfa.accepts(w[cut:]):
                return False
    return True


def test_criterion_6_classifiers_match_brute_force():
    mismatches = 0
    for ident, pattern in CORPUS:
        dfa = build_dfa(pattern)
        rdfa = trim_reachable(reverse_to_rdfa(dfa))

        # triviality: bounded worst-case distance at every realized length
        worst = [max_slice_distance(dfa, n) for n in range(11)]
        realized = [w for w in worst if w is not None]
        early_cap = max((w for w in worst[:7] if w is not None), default=0)
        if is_trivial(dfa):
            if any(w > early_cap for w in realized):
                mismatches += 1
        else:
            found = find_excluded_factor(dfa)
            if found is None:
                mismatches += 1
            else:
                progression, factor = found
                n = next(m for m in progression.iterate(30) if m >= 6)
                packed = (factor * (n // len(factor) + 1))[:n]
                if distance_to_language(packed, dfa) < n // len(factor):
                    mismatches += 1

        if is_suffix_free(rdfa) != brute_suffix_free(dfa, 7):
            mismatches += 1

        # one-sided class audited against brute-force triviality of the
        # non-transient-finals restriction
        scc = scc_decompose(rdfa)
        recurrent = [f for f in rdfa.finals if not scc.is_transient_state(f)]
        recurrent_dfa = rdfa_to_dfa(Rdfa(rdfa.alphabet, rdfa.delta, rdfa.initial, recurrent))
        recurrent_worst = [max_slice_distance(recurrent_dfa, n) for n in range(11)]
        recurrent_realized = [w for w in recurrent_worst if w is not None]
        recurrent_cap = max((w for w in recurrent_worst[:7] if w is not None), default=0)
        recurrent_trivial_brute = all(w <= recurrent_cap for w in recurrent_realized)
        classification = one_sided_class(dfa)
        trivial_brute = all(w <= early_cap for w in realized)
        expected = (
            OneSidedClass.CONSTANT_TRIVIAL
            if trivial_brute
            else OneSidedClass.LOGLOG
            if recurrent_trivial_brute
            else OneSidedClass.LOG_LOWER_BOUND
        )
        if classification is not expected:
            mismatches += 1

    assert mismatches == 0
    assert one_sided_class(build_dfa("(a|b)*a")) is OneSidedClass.CONSTANT_TRIVIAL
    assert one_sided_class(build_dfa("ba*")) is OneSidedClass.LOGLOG
    assert one_sided_class(build_dfa("a*")) is OneSidedClass.LOG_LOWER_BOUND
    print(f"ACCEPTANCE 6 PASS: classifiers match brute force on {len(CORPUS)} languages, 0 mismatches")


# --- criterion 7: analysis properties hold as machine checks ------------------------------


def internal_run_representatives(analyzed, p, max_len):
    """One representative internal run per (length, trailing-state window):
    the simulation check only reads a run's length and its last t+1 states,
    so this deduplication loses nothing while staying exhaustive."""
    scc = analyzed.scc
    tail = analyzed.t + 1
    reps = {(len((p,)) - 1, (p,)): [p]}
    frontier = {(p,): [p]}
    for _length in range(max_len):
        next_frontier = {}
        for tail_states, run in frontier.items():
            state = run[-1]
            for a in range(len(analyzed.rdfa.alphabet)):
                target = analyzed.rdfa.delta[state][a]
                if not scc.same_scc(p, target):
                    continue
                new_run = run + [target]
                key = tuple(new_run[-tail:])
                if key not in next_frontier:
                    next_frontier[key] = new_run
                    reps.setdefault((len(new_run) - 1, key), new_run)
        frontier = next_frontier
    return [run for (_len, _key), run in sorted(reps.items(), key=lambda kv: kv[0][0])]


# DFAs of the compile benchmark's random corpus with many states or mixed periods: their analyses
# have 25, 10, 9 and 7 states (g = 1, 2, 3, 4), their uniformizations 25, 13, 13 and 16 states;
# (transition table, finals) over ab, minimized as the corpus is
PINNED_DFAS = [
    ([[1, 0], [0, 2], [4, 4], [2, 2], [4, 3]], [0, 2, 3]),
    ([[2, 1], [0, 0], [3, 2], [2, 2]], [2]),
    ([[2, 4], [0, 4], [2, 3], [0, 4], [3, 4]], [0, 3]),
    ([[1, 3], [2, 2], [3, 3], [0, 2]], [3]),
]


def test_criterion_7_analysis_properties():
    checks = 0
    machines = [(ident, build_dfa(pattern)) for ident, pattern in CORPUS]
    machines += [(f"dfa{delta}/{finals}", minimize(Dfa(AB, delta, 0, finals))) for delta, finals in PINNED_DFAS]
    for ident, dfa in machines:
        analyzed = analyze(dfa)
        rdfa, g, t = analyzed.rdfa, analyzed.g, analyzed.t

        # acceptance sets vs brute force, and periodicity beyond the threshold
        bound = t + 2 * g + 8
        for q in range(rdfa.n_states):
            flags = brute_accept_length_flags(rdfa, q, bound + g)
            for n in range(bound + 1):
                assert analyzed.acc[q].member(n) == flags[n], (ident, q, n)
            for x in range(t, t + 4 * g + 1):
                assert analyzed.acc[q].member(x) == analyzed.acc[q].member(x + g)
            checks += bound

        # uniformization: same language, every recurrent period g
        base = trim_reachable(reverse_to_rdfa(dfa))
        uniform = uniformize_period(base)
        assert equivalent(rdfa_to_dfa(base), rdfa_to_dfa(uniform)), ident
        for period in compute_period_info(uniform).component_period:
            assert period in (None, g), ident

        # shift antisymmetry, mod each SCC's own period
        for cid, comp in enumerate(analyzed.scc.components):
            period = analyzed.periods.component_period[cid]
            if period is None:
                continue
            for p in comp:
                for q in comp:
                    assert (analyzed.shift(p, q) + analyzed.shift(q, p)) % period == 0

        # run simulation within the guard
        sim_bound = t + 2 * g + 6
        for p in range(rdfa.n_states):
            if analyzed.scc.is_transient_state(p):
                continue
            accepted = brute_accept_length_flags(rdfa, p, sim_bound)
            if not any(accepted):
                continue
            for run in internal_run_representatives(analyzed, p, sim_bound):
                for n in range(len(run) - 1, sim_bound + 1):
                    if accepted[n]:
                        assert check_t_simulation(analyzed, run, n), (ident, p, run, n)
                        checks += 1
    assert checks > 0
    print(f"ACCEPTANCE 7 PASS: acceptance sets, uniformization, shifts and run simulation verified ({checks} checks)")


# --- criterion 8: union semantics ------------------------------------------------------------


def test_criterion_8_union_semantics():
    ends_a = build_dfa("(a|b)*a")
    b_then_a = build_dfa("ba*")
    union_dfa = build_dfa("(a|b)*a|ba*")

    # deterministic stubs: union accepts exactly when a part accepts
    for n in (2, 4):
        for stream in words_up_to(AB, 8):
            union = UnionTester([exact_tester(ends_a, n), exact_tester(b_then_a, n)])
            feed_all(union, stream)
            window = last_n(n, stream, AB.pad)
            expected = ends_a.accepts(window) or b_then_a.accepts(window)
            assert union.decide() == expected == union_dfa.accepts(window), (stream, n)

    # randomized composition: members of either part accepted with probability 1
    n = 6
    lengths = realized_lengths(ends_a)
    partials = build_partials("ba*")
    for prime in prime_pool(n):
        for stream in ("ababba", "b" + "a" * (n - 1)):
            union = UnionTester(
                [trivial_tester(AB, lengths, n), OneSidedTester(FingerprintTable(partials, n), prime=prime)]
            )
            feed_all(union, stream)
            assert union.decide(), (prime, stream)
    print("ACCEPTANCE 8 PASS: union accepts exactly when a sub-tester accepts; member acceptance has probability 1")
