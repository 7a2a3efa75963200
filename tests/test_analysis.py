import itertools
import json
import math

import pytest
from conftest import AB, UNARY, CORPUS, WIDE_PERIOD_DFA, build_analyzed, build_dfa, complete_dfas, transient_partials, words_up_to
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import cut_language, scc_reach

from regwin import (
    Alphabet,
    Dfa,
    EventuallyPeriodicSet,
    Nfa,
    OneSidedClass,
    Progression,
    Rdfa,
    StateLimitExceeded,
    analyze,
    automaton_to_json,
    compute_period_info,
    determinize,
    distance_to_language,
    equivalent,
    find_excluded_factor,
    is_length_language,
    is_suffix_free,
    is_trivial,
    length_cut_witness,
    one_sided_class,
    product_intersect,
    rdfa_to_dfa,
    realized_lengths,
    reverse_to_rdfa,
    shift,
    trim_reachable,
    uniformize_period,
)
from regwin.analysis import (
    FACTOR_MAX_LEN,
    FACTOR_MAX_STEP_MULTIPLE,
    _backs,
    _factor_dfa,
    _fronts,
    global_threshold,
)
from regwin.cli import main


def brute_accept_length_flags(rdfa, q: int, up_to: int) -> list[bool]:
    """flags[n] == some length-n word leads from q to a final state."""
    flags = []
    frontier = {q}
    for _ in range(up_to + 1):
        flags.append(bool(frontier & rdfa.finals))
        frontier = {rdfa.delta[p][a] for p in frontier for a in range(len(rdfa.alphabet))}
    return flags


def brute_component_period(component, rdfa):
    """gcd of closed-walk lengths up to 2|Q| inside the component."""
    comp = set(component)
    g = 0
    for start in comp:
        frontier = {start}
        for length in range(1, 2 * rdfa.n_states + 1):
            frontier = {
                rdfa.delta[p][a] for p in frontier for a in range(len(rdfa.alphabet))
            } & comp
            if start in frontier:
                g = math.gcd(g, length)
    return g or None


def two_three_machine() -> Rdfa:
    """Hand-built machine with non-transient SCC periods {2, 3}."""
    delta = [
        [1, 2],  # state 0: a->1, b->2
        [0, 2],  # state 1: a->0, b->2
        [3, 3],  # 3-cycle 2 -> 3 -> 4 -> 2 on every symbol
        [4, 4],
        [2, 2],
    ]
    return Rdfa(AB, delta, 0, [2])


# --- EventuallyPeriodicSet ------------------------------------------------------


def test_ep_set_canonicalizes_period_and_threshold():
    # all-even set described with a redundant period and threshold
    s = EventuallyPeriodicSet(3, 4, [True, False, True], [True, False, True, False])
    assert (s.threshold, s.period) == (0, 2)
    assert [s.member(x) for x in range(6)] == [True, False, True, False, True, False]


def test_ep_set_constructors():
    prog = EventuallyPeriodicSet.from_progression(3, 4)
    assert [x for x in range(15) if prog.member(x)] == [3, 7, 11]
    finite = EventuallyPeriodicSet.from_finite([1, 4])
    assert finite.is_finite and finite.member(4) and not finite.member(5)
    assert EventuallyPeriodicSet.empty().is_empty
    assert EventuallyPeriodicSet.universal().member(123)


def test_ep_set_shift_and_agreement():
    evens = EventuallyPeriodicSet.from_member_fn(lambda x: x % 2 == 0, 0, 2)
    odds_from_one = shifted(evens, 1)
    assert [x for x in range(7) if odds_from_one.member(x)] == [1, 3, 5]
    assert evens.min_threshold_agree(evens) == 0
    # evens vs evens-shifted-by-2 differ only at 0 and 1
    assert evens.min_threshold_agree(shifted(evens, 2)) == 1
    assert evens.min_threshold_agree(odds_from_one) is None
    assert min_threshold_periodic(evens, 2) == 0
    assert min_threshold_periodic(evens, 4) == 0


@settings(max_examples=150, deadline=None)
@given(
    threshold=st.integers(0, 5),
    period=st.integers(1, 5),
    bits=st.lists(st.booleans(), min_size=10, max_size=10),
)
def test_ep_set_canonical_form_preserves_membership(threshold, period, bits):
    prefix = bits[:threshold]
    residues = (bits + bits)[threshold : threshold + period]
    raw = lambda x: prefix[x] if x < threshold else residues[x % period]
    s = EventuallyPeriodicSet(threshold, period, prefix, residues)
    for x in range(threshold + 3 * period + 2):
        assert s.member(x) == raw(x)


# --- SCC decomposition ------------------------------------------------------------


def test_scc_a_star_rdfa():
    analyzed = build_analyzed("a*")
    scc = analyzed.scc
    rdfa = analyzed.rdfa
    q0, sink = rdfa.initial, 1 - rdfa.initial
    assert len(scc.components) == 2
    assert not scc.transient[scc.scc_id[q0]] and not scc.transient[scc.scc_id[sink]]
    reach = scc_reach(analyzed)
    assert scc.scc_id[sink] in reach[scc.scc_id[q0]]
    assert scc.scc_id[q0] not in reach[scc.scc_id[sink]]


def test_scc_b_then_a_has_transient_final():
    analyzed = build_analyzed("ba*")
    scc = analyzed.scc
    (final,) = analyzed.rdfa.finals
    assert scc.is_transient_state(final)
    assert not scc.is_transient_state(analyzed.rdfa.initial)
    assert len(scc.components) == 3


def test_scc_self_loop_singleton_is_not_transient():
    analyzed = build_analyzed("(a|b)*")
    assert len(analyzed.scc.components) == 1
    assert not analyzed.scc.transient[0]


def test_scc_components_partition_states():
    for _id, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        states = [q for comp in analyzed.scc.components for q in comp]
        assert sorted(states) == list(range(analyzed.rdfa.n_states))


# --- periods -----------------------------------------------------------------------


def scc_period_of(rdfa, q):
    """The period of q's component, read off ``compute_period_info``."""
    info = compute_period_info(rdfa)
    return info.component_period[info.scc.scc_id[q]]


def test_scc_period_examples():
    even = build_analyzed("(aa)*", "a")
    assert scc_period_of(even.rdfa, even.rdfa.initial) == 2

    star = build_analyzed("a*")
    assert scc_period_of(star.rdfa, star.rdfa.initial) == 1

    ba = build_analyzed("ba*")
    (final,) = ba.rdfa.finals
    assert scc_period_of(ba.rdfa, final) is None  # transient


def test_scc_period_agrees_with_cycle_length_gcd():
    for _id, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        info = compute_period_info(analyzed.rdfa)
        for comp, period in zip(info.scc.components, info.component_period):
            assert period == brute_component_period(comp, analyzed.rdfa)


def test_residue_classes_respect_edges():
    for _id, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        info = analyzed.periods
        for p, _a, q in analyzed.rdfa.transitions():
            cid = info.scc.scc_id[p]
            if cid != info.scc.scc_id[q] or info.component_period[cid] is None:
                continue
            g = info.component_period[cid]
            assert info.class_of[q] == (info.class_of[p] + 1) % g


# --- uniformize_period ----------------------------------------------------------------


def test_uniformize_mixed_periods():
    base = two_three_machine()
    uniform = uniformize_period(base)
    assert uniform.n_states <= 6 * base.n_states
    info = compute_period_info(uniform)
    assert info.global_period == 6
    assert all(p in (None, 6) for p in info.component_period)
    assert equivalent(rdfa_to_dfa(base), rdfa_to_dfa(uniform))


def test_uniformize_period_one_is_isomorphic_after_trim():
    base = reverse_to_rdfa(build_dfa("a*"))
    uniform = uniformize_period(base)
    assert compute_period_info(base).global_period == 1
    assert uniform.n_states == base.n_states
    assert equivalent(rdfa_to_dfa(base), rdfa_to_dfa(uniform))


def test_uniformize_even_as():
    base = reverse_to_rdfa(build_dfa("(aa)*", "a"))
    uniform = uniformize_period(base)
    assert compute_period_info(base).global_period == 2
    assert all(p in (None, 2) for p in compute_period_info(uniform).component_period)


def test_analyze_keeps_the_trimmed_reversal_with_g_the_lcm_of_its_periods():
    """``analyze`` adds no counter: its machine is the trimmed reversal,
    and g is the lcm of its recurrent SCCs' periods, which need not be
    equal (``(aa)*|b(aa)*b`` has a sink of period 1 beside period 2)."""
    mixed = 0
    for _id, pattern in CORPUS + [("", "(aa)*|b(aa)*b")]:
        analyzed = build_analyzed(pattern)
        reversal = trim_reachable(reverse_to_rdfa(build_dfa(pattern)))
        assert (analyzed.rdfa.delta, analyzed.rdfa.finals) == (reversal.delta, reversal.finals)
        periods = {period for period in analyzed.periods.component_period if period is not None}
        assert analyzed.g == math.lcm(*periods)
        mixed += len(periods) > 1
    assert mixed


def test_analyze_answers_a_machine_whose_periods_multiply_past_the_state_cap():
    """This 9-state machine's SCC periods multiply to 2^20, and a counter
    mod that product used to be refused at the state cap.  The periods'
    lcm is 4: the analysis has 83 states, and the one-sided path
    descriptions' uniformization 196, every recurrent SCC of period 4."""
    analyzed = analyze(WIDE_PERIOD_DFA)
    assert (analyzed.rdfa.n_states, analyzed.g) == (83, 4)
    assert math.prod(period for period in analyzed.periods.component_period if period is not None) == 2**20
    uniform = uniformize_period(analyzed.rdfa)
    assert uniform.n_states == 196
    assert {period for period in compute_period_info(uniform).component_period if period is not None} == {4}
    assert equivalent(rdfa_to_dfa(analyzed.rdfa), rdfa_to_dfa(uniform))


def test_uniformize_period_refuses_a_product_past_the_state_cap():
    """Uniformization explores at most ``DEFAULT_STATE_CAP`` states.  Read
    right to left, the prime cycles' machine has recurrent periods 2, 3,
    ..., 17, whose lcm is 510510: the product of each cycle with the
    counter has that many states."""
    dfa = prime_cycles_dfa()
    rdfa = Rdfa(dfa.alphabet, dfa.delta, dfa.initial, dfa.finals)
    with pytest.raises(StateLimitExceeded, match=r"^period uniformization \(g = 510510\) exceeded 65536 states$"):
        uniformize_period(rdfa)


# --- shift ------------------------------------------------------------------------


def test_shift_even_as():
    analyzed = build_analyzed("(aa)*", "a")
    p0 = analyzed.rdfa.initial
    p1 = analyzed.rdfa.delta[p0][UNARY.code("a")]
    assert analyzed.shift(p0, p1) == 1
    assert analyzed.shift(p1, p0) == 1
    assert analyzed.shift(p0, p0) == 0


def test_shift_errors_outside_shared_recurrent_scc():
    analyzed = build_analyzed("ba*")
    (final,) = analyzed.rdfa.finals
    with pytest.raises(ValueError):
        analyzed.shift(analyzed.rdfa.initial, final)
    with pytest.raises(ValueError):
        analyzed.shift(final, final)  # transient


def test_shift_antisymmetry_on_mixed_period_machine():
    """Shifts are residues mod each SCC's own period."""
    analyzed = analyze(two_three_machine())
    assert analyzed.g == 6
    scc = analyzed.scc
    for cid, comp in enumerate(scc.components):
        period = analyzed.periods.component_period[cid]
        if period is None:
            continue
        for p in comp:
            for q in comp:
                assert (analyzed.shift(p, q) + analyzed.shift(q, p)) % period == 0


# --- acceptance sets ---------------------------------------------------------------


def test_acceptance_sets_a_star():
    analyzed = build_analyzed("a*")
    q0, sink = analyzed.rdfa.initial, 1 - analyzed.rdfa.initial
    assert analyzed.acc[q0] == EventuallyPeriodicSet.universal()
    assert analyzed.acc[sink].is_empty
    assert analyzed.t == 0
    assert analyzed.acc_mod[q0] == {0} and analyzed.acc_mod[sink] == frozenset()


@settings(max_examples=300, deadline=None)
@given(complete_dfas())
def test_acceptance_residues_match_the_member_loop(dfa):
    """``acc_mod``, read off each set's residues, against membership of
    every length in [t, t + g)."""
    try:
        analyzed = analyze(dfa)
    except StateLimitExceeded:
        assume(False)
    g, t = analyzed.g, analyzed.t
    assert analyzed.acc_mod == tuple(frozenset(x % g for x in range(t, t + g) if a.member(x)) for a in analyzed.acc)


def test_acceptance_sets_even_as():
    analyzed = build_analyzed("(aa)*", "a")
    assert analyzed.g == 2
    p0 = analyzed.rdfa.initial
    p1 = analyzed.rdfa.delta[p0][UNARY.code("a")]
    flags0 = brute_accept_length_flags(analyzed.rdfa, p0, 16)
    flags1 = brute_accept_length_flags(analyzed.rdfa, p1, 16)
    assert flags0 == [n % 2 == 0 for n in range(17)]
    assert flags1 == [n % 2 == 1 for n in range(17)]
    for n in range(17):
        assert analyzed.acc[p0].member(n) == flags0[n]
        assert analyzed.acc[p1].member(n) == flags1[n]


def test_acceptance_sets_b_then_a():
    analyzed = build_analyzed("ba*")
    q0 = analyzed.rdfa.initial
    (final,) = analyzed.rdfa.finals
    sink = next(q for q in range(3) if q not in (q0, final))
    assert [analyzed.acc[q0].member(n) for n in range(17)] == [False] + [True] * 16
    assert [n for n in range(17) if analyzed.acc[final].member(n)] == [0]
    assert analyzed.acc[sink].is_empty


def test_acceptance_sets_match_brute_force_on_corpus():
    for _id, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        bound = analyzed.t + 2 * analyzed.g + 8
        for q in range(analyzed.rdfa.n_states):
            flags = brute_accept_length_flags(analyzed.rdfa, q, bound)
            for n in range(bound + 1):
                assert analyzed.acc[q].member(n) == flags[n], (pattern, q, n)


def test_acceptance_periodicity_beyond_threshold():
    for _id, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        for q in range(analyzed.rdfa.n_states):
            for x in range(analyzed.t, analyzed.t + 4 * analyzed.g + 1):
                assert analyzed.acc[q].member(x) == analyzed.acc[q].member(x + analyzed.g)


def test_threshold_respects_shift_condition():
    for _id, pattern in CORPUS:
        analyzed = build_analyzed(pattern)
        scc = analyzed.scc
        for cid, comp in enumerate(scc.components):
            if analyzed.periods.component_period[cid] is None:
                continue
            for p in comp:
                for q in comp:
                    s = analyzed.shift(p, q)
                    for x in range(analyzed.t, analyzed.t + 3 * analyzed.g + 1):
                        assert analyzed.acc[p].member(x) == shifted(analyzed.acc[q], s).member(x)


# --- the global threshold against its pairwise reference ---------------------------


def shifted(a, offset):
    """The set ``{x + offset : x in a}``."""
    if offset == 0:
        return a
    return EventuallyPeriodicSet.from_member_fn(
        lambda x: x >= offset and a.member(x - offset), a.threshold + offset, a.period
    )


def min_threshold_periodic(a, step):
    """Least t with a.member(x) == a.member(x + step) for all x >= t."""
    window = math.lcm(a.period, step)
    start = a.threshold
    if any(a.member(x) != a.member(x + step) for x in range(start, start + window)):
        raise ValueError(f"set is not eventually periodic with step {step}")
    t = start
    while t > 0 and a.member(t - 1) == a.member(t - 1 + step):
        t -= 1
    return t


def reference_global_threshold(acc, g, info):
    """``global_threshold`` by definition: every set's least g-periodic
    threshold, and one shifted set and one agreement threshold for every
    ordered pair of states of each non-transient SCC inside ``acc``."""
    t = 0
    for a in acc.values():
        t = max(t, min_threshold_periodic(a, g))
    for cid, component in enumerate(info.scc.components):
        if info.component_period[cid] is None or not acc.keys() >= component:
            continue
        for p, q in itertools.permutations(sorted(component), 2):
            agree = acc[p].min_threshold_agree(shifted(acc[q], shift(p, q, info)))
            if agree is None:
                raise RuntimeError("same-SCC acceptance sets failed to almost agree")
            t = max(t, agree)
    return t


def threshold_outcome(routine, acc, g, info):
    try:
        return routine(acc, g, info)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def threshold_cases(dfa):
    """The (state -> set) maps ``global_threshold`` sees for one machine:
    the analysis's own, then each transient final's partial machines'."""
    try:
        analyzed = analyze(dfa)
        partials = transient_partials(analyzed)
    except StateLimitExceeded:
        assume(False)
    return analyzed, [dict(enumerate(analyzed.acc))] + [partial.acc for partial in partials]


@settings(max_examples=400)
@given(complete_dfas())
def test_global_threshold_matches_the_pairwise_reference(dfa):
    analyzed, cases = threshold_cases(dfa)
    for acc in cases:
        got = threshold_outcome(global_threshold, acc, analyzed.g, analyzed.periods)
        assert got == threshold_outcome(reference_global_threshold, acc, analyzed.g, analyzed.periods)
    assert analyzed.t == reference_global_threshold(cases[0], analyzed.g, analyzed.periods)


@settings(max_examples=400)
@given(complete_dfas(), st.data())
def test_global_threshold_matches_the_pairwise_reference_on_edited_sets(dfa, data):
    """One state's set replaced by a drawn one, so that sets of one SCC
    often fail to almost agree, or agree only late; a drawn period that
    does not divide g makes both routines refuse the map."""
    analyzed, cases = threshold_cases(dfa)
    g = analyzed.g
    acc = dict(data.draw(st.sampled_from(cases)))
    threshold = data.draw(st.integers(0, 2 * g + 3))
    period = data.draw(st.sampled_from([g, g, g, 2 * g, g + 1]))
    flags = data.draw(st.lists(st.booleans(), min_size=threshold + period, max_size=threshold + period))
    acc[data.draw(st.sampled_from(sorted(acc)))] = EventuallyPeriodicSet(
        threshold, period, flags[:threshold], flags[threshold:]
    )
    got = threshold_outcome(global_threshold, acc, g, analyzed.periods)
    assert got == threshold_outcome(reference_global_threshold, acc, g, analyzed.periods)


def cycle_periods(length):
    """Periods of a unary machine that is one cycle of ``length`` states,
    state i in class i."""
    info = compute_period_info(Rdfa(UNARY, [[(q + 1) % length] for q in range(length)], 0, [0]))
    assert info.class_of == tuple(range(length))
    return info


def test_global_threshold_refuses_sets_of_one_scc_that_do_not_almost_agree():
    evens = EventuallyPeriodicSet.from_progression(0, 2)
    # state 1 lies one step past state 0, so its set should be the odd numbers
    acc = {0: evens, 1: evens}
    for routine in (global_threshold, reference_global_threshold):
        with pytest.raises(RuntimeError, match="failed to almost agree"):
            routine(acc, 2, cycle_periods(2))


def test_global_threshold_refuses_a_set_that_is_not_g_periodic():
    acc = {0: EventuallyPeriodicSet.from_progression(1, 3)}
    for routine in (global_threshold, reference_global_threshold):
        with pytest.raises(ValueError, match="not eventually periodic with step 2"):
            routine(acc, 2, cycle_periods(2))


def test_global_threshold_counts_pairs_whose_shift_wraps():
    """State 1 compares its set with state 0's shifted by (0 - 1) mod 2 = 1,
    the only pair whose shift wraps: {1, 3, ...} against {3, 5, ...} differ
    at 1, so t = 2, above both the sets' thresholds and the pair the other
    way round."""
    acc = {0: EventuallyPeriodicSet.from_progression(2, 2), 1: EventuallyPeriodicSet.from_progression(1, 2)}
    info = cycle_periods(2)
    assert max(a.threshold for a in acc.values()) == 1
    assert acc[0].min_threshold_agree(shifted(acc[1], shift(0, 1, info))) == 0
    assert global_threshold(acc, 2, info) == reference_global_threshold(acc, 2, info) == 2


@pytest.mark.parametrize("length", [3, 5])
def test_global_threshold_of_a_cycle(length):
    """State c of the cycle reaches the final state 0 in lengths -c mod L.
    Shifted by (1 - 2) mod L = L - 1, state 1's set has no member below
    2L - 2, so state 2's member L - 2 sets t = L - 1."""
    analyzed = analyze(Rdfa(UNARY, [[(q + 1) % length] for q in range(length)], 0, [0]))
    assert (analyzed.g, analyzed.t) == (length, length - 1)
    assert reference_global_threshold(dict(enumerate(analyzed.acc)), length, analyzed.periods) == length - 1


@pytest.mark.parametrize("length", [2, 3, 5])
def test_global_threshold_of_a_cycle_that_never_accepts_is_zero(length):
    """Empty sets agree everywhere, whatever the shift: no bit below the
    SCC period may count as a difference."""
    acc = {q: EventuallyPeriodicSet.empty() for q in range(length)}
    for routine in (global_threshold, reference_global_threshold):
        assert routine(acc, length, cycle_periods(length)) == 0


@pytest.mark.parametrize("width", [0, 1, 5, 17])
def test_ep_set_bits_list_the_members_below_the_width(width):
    sets = [
        EventuallyPeriodicSet.from_progression(3, 4),
        EventuallyPeriodicSet(4, 3, [True, False, False, True], [False, True, True]),
        EventuallyPeriodicSet.from_finite([0, 2, 9]),
        EventuallyPeriodicSet.empty(),
        EventuallyPeriodicSet.universal(),
    ]
    for a in sets:
        assert a.bits(width) == sum(1 << x for x in range(width) if a.member(x)), a


# --- cut languages --------------------------------------------------------------------


def test_cut_zero_zero_is_identity():
    for _id, pattern in CORPUS[:6]:
        dfa = build_dfa(pattern)
        assert equivalent(determinize(cut_language(dfa, 0, 0)), dfa)


def test_cut_language_b_then_a():
    dfa = build_dfa("ba*")
    cut = cut_language(dfa, 1, 0)
    # brute-force the definition: v is in the cut iff some one-symbol
    # extension on the left lands in L
    for v in words_up_to(AB, 5):
        expected = any(dfa.accepts(x + v) for x in AB.symbols)
        assert cut.accepts(v) == expected, v
    assert equivalent(determinize(cut), build_dfa("a*"))


def test_cut_language_even_as():
    dfa = build_dfa("(aa)*", "a")
    cut = cut_language(dfa, 1, 1)
    for v in words_up_to(UNARY, 8):
        expected = any(dfa.accepts(x + v + z) for x in "a" for z in "a")
        assert cut.accepts(v) == expected, v
    assert equivalent(determinize(cut), dfa)


# --- length languages and triviality ----------------------------------------------------


def test_is_length_language_examples():
    assert is_length_language(build_dfa("(aa)*", "a"))
    assert not is_length_language(build_dfa("(aa)*"))  # ab has even length but is out
    assert not is_length_language(build_dfa("a*"))


def test_is_trivial_examples():
    assert is_trivial(build_dfa("(a|b)*a"))
    assert not is_trivial(build_dfa("a*"))
    assert is_trivial(build_dfa("(a|b)*"))


def test_trivial_language_has_bounded_distance():
    dfa = build_dfa("(a|b)*a")
    for n in range(1, 9):
        worst = max(distance_to_language(w, dfa) for w in words_up_to(AB, n) if len(w) == n)
        assert worst == 1


def test_length_cut_witness_is_a_real_witness():
    dfa = build_dfa("(a|b)*a")
    witness = length_cut_witness(dfa)
    assert witness is not None
    i, j = witness
    assert is_length_language(cut_language(dfa, i, j))
    assert length_cut_witness(build_dfa("a*")) is None


# --- suffix-freeness ---------------------------------------------------------------------


def brute_suffix_free(dfa, max_len: int) -> bool:
    """Definitional check: no member xy with nonempty x has y in L."""
    for w in words_up_to(dfa.alphabet, max_len):
        if not dfa.accepts(w):
            continue
        for cut in range(1, len(w) + 1):  # x = w[:cut] is nonempty
            if dfa.accepts(w[cut:]):
                return False
    return True


def test_is_suffix_free_examples():
    assert is_suffix_free(trim_reachable(reverse_to_rdfa(build_dfa("ba*"))))
    assert not is_suffix_free(trim_reachable(reverse_to_rdfa(build_dfa("a*"))))
    # fixed-length block language: proper suffixes are shorter
    assert is_suffix_free(trim_reachable(reverse_to_rdfa(build_dfa("(a|b)(a|b)"))))


def test_is_suffix_free_matches_definition_on_corpus():
    for _id, pattern in CORPUS:
        dfa = build_dfa(pattern)
        rdfa = trim_reachable(reverse_to_rdfa(dfa))
        assert is_suffix_free(rdfa) == brute_suffix_free(dfa, 7), pattern


# --- one-sided classes ----------------------------------------------------------------------


def test_one_sided_class_examples():
    assert one_sided_class(build_dfa("(a|b)*a")) is OneSidedClass.CONSTANT_TRIVIAL
    assert one_sided_class(build_dfa("ba*")) is OneSidedClass.LOGLOG
    assert one_sided_class(build_dfa("a*")) is OneSidedClass.LOG_LOWER_BOUND


def test_one_sided_class_b_even_a_is_loglog():
    assert one_sided_class(build_dfa("b(aa)*")) is OneSidedClass.LOGLOG


# --- excluded factors -------------------------------------------------------------------------


def test_find_excluded_factor_a_star():
    result = find_excluded_factor(build_dfa("a*"))
    assert result == (Progression(0, 1), "b")


def test_find_excluded_factor_ab_star():
    result = find_excluded_factor(build_dfa("(ab)*"))
    assert result is not None
    progression, factor = result
    assert progression.step % 2 == 0 and progression.member(progression.offset)
    assert factor in ("aa", "bb")


def test_find_excluded_factor_none_for_trivial():
    assert find_excluded_factor(build_dfa("(a|b)*a")) is None


def test_excluded_factor_packing_gives_linear_distance():
    for pattern in ("a*", "(ab)*", "((a|b)a)*"):
        dfa = build_dfa(pattern)
        progression, factor = find_excluded_factor(dfa)
        n = next(m for m in progression.iterate(20) if m >= 6)
        packed = (factor * (n // len(factor) + 1))[:n]
        copies = n // len(factor)
        assert distance_to_language(packed, dfa) >= copies, pattern


def _length_dfa(alphabet, lengths):
    """DFA accepting exactly the words whose length lies in ``lengths``."""
    t, d = lengths.threshold, lengths.period
    n = t + d
    delta = [[i + 1 if i + 1 < n else t] * len(alphabet) for i in range(n)]
    finals = [i for i in range(n) if lengths.member(i)]
    return Dfa(alphabet, delta, 0, finals)


def reference_excluded_factor(dfa):
    """``find_excluded_factor`` by brute force, in its documented order:
    for each (factor, progression), intersect the language with the
    progression's length DFA and the factor's DFA, and walk the product for
    a reachable final state."""
    if is_trivial(dfa):
        return None
    lengths = realized_lengths(dfa)
    t, d = lengths.threshold, lengths.period
    progressions = [
        Progression(offset, d * multiple)
        for multiple in range(1, FACTOR_MAX_STEP_MULTIPLE + 1)
        for offset in range(t, t + d * multiple)
        if lengths.member(offset)
    ]
    restrictions = {
        p: product_intersect(dfa, _length_dfa(dfa.alphabet, EventuallyPeriodicSet.from_progression(p.offset, p.step)))
        for p in progressions
    }
    for factor_len in range(1, FACTOR_MAX_LEN + 1):
        for factor in map("".join, itertools.product(dfa.alphabet.symbols, repeat=factor_len)):
            hits = _factor_dfa(dfa.alphabet, factor)
            for p in progressions:
                if not trim_reachable(product_intersect(restrictions[p], hits)).finals:
                    return p, factor
    return None


def search_outcome(search, dfa):
    try:
        return search(dfa)
    except StateLimitExceeded:
        return "state limit"


def reference_length_cut_witness(dfa):
    """``length_cut_witness`` by brute force, in its documented order: for
    each (front i, back j) pair, determinize the cut language and compare
    it with the DFA of its own length set."""
    fronts, _ = _fronts((dfa.initial,), dfa.delta)
    backs, _ = _backs(dfa.finals, dfa.delta)
    for i in range(len(fronts)):
        for j in range(len(backs)):
            cut = determinize(cut_language(dfa, i, j))
            if equivalent(cut, _length_dfa(dfa.alphabet, realized_lengths(cut))):
                return i, j
    return None


@settings(max_examples=600)
@given(complete_dfas())
def test_excluded_factor_matches_the_per_progression_reference(dfa):
    assert search_outcome(find_excluded_factor, dfa) == search_outcome(reference_excluded_factor, dfa)


@pytest.mark.parametrize(
    "pattern, symbols",
    [(pattern, "ab") for _, pattern in CORPUS]
    + [
        ("(a|ba|bba|bbba|bbbba)*(|b|bb|bbb|bbbb)", "ab"),  # nontrivial; the bounded search exhausts
        ("(aa)*|b(aa)*b", "ab"),
        ("(aa)*b(aaa)*c(aaaaa)*", "abc"),  # its image sets pass 24 states
    ],
)
def test_excluded_factor_matches_the_per_progression_reference_on_the_corpus(pattern, symbols):
    dfa = build_dfa(pattern, symbols)
    assert search_outcome(find_excluded_factor, dfa) == search_outcome(reference_excluded_factor, dfa)


@settings(max_examples=600)
@given(complete_dfas())
def test_length_cut_witness_matches_the_per_pair_reference(dfa):
    assert search_outcome(length_cut_witness, dfa) == search_outcome(reference_length_cut_witness, dfa)


@pytest.mark.parametrize("pattern", [pattern for _, pattern in CORPUS])
def test_length_cut_witness_matches_the_per_pair_reference_on_the_corpus(pattern):
    dfa = build_dfa(pattern)
    assert search_outcome(length_cut_witness, dfa) == search_outcome(reference_length_cut_witness, dfa)


@pytest.mark.parametrize(
    "pattern, symbols, witness",
    [("(aa)*b(aaa)*c(aaaaa)*", "abc", None), ("(a|b)*b(a|b)(a|b)(a|b)(a|b)(a|b)", "ab", (0, 6))],
    ids=["(aa)*b(aaa)*c(aaaaa)*-abc", "(a|b)*b(a|b)(a|b)(a|b)(a|b)(a|b)-ab"],
)
def test_length_cut_witness_answers_as_the_reference_does(pattern, symbols, witness):
    """Languages whose image sets or acceptance lassos pass 24 states."""
    dfa = build_dfa(pattern, symbols)
    assert length_cut_witness(dfa) == reference_length_cut_witness(dfa) == witness


def prime_cycles_dfa(primes=(2, 3, 5, 7, 11, 13, 17)) -> Dfa:
    """From the initial state the k-th symbol enters a cycle of the k-th
    prime length, whose first state is final; inside a cycle every symbol
    moves one state on.  With 2..17 that is 59 states whose fronts, and
    whose reversal's subsets, repeat only after lcm = 510510 steps."""
    delta, finals = [[0] * len(primes)], []
    for k, prime in enumerate(primes):
        first = len(delta)
        delta[0][k] = first
        finals.append(first)
        delta += [[first + (i + 1) % prime] * len(primes) for i in range(prime)]
    return Dfa(Alphabet.from_string("abcdefg"[: len(primes)]), delta, 0, finals)


LASSO_REFUSAL = "the length-set lasso exceeded 65536 values"


@pytest.mark.parametrize(
    "walk, refusal",
    [
        (realized_lengths, LASSO_REFUSAL),
        (is_trivial, LASSO_REFUSAL),
        (is_length_language, LASSO_REFUSAL),
        (analyze, "subset construction exceeded 65536 states"),
    ],
    ids=["realized_lengths", "is_trivial", "is_length_language", "analyze"],
)
def test_walks_on_prime_cycles_stop_at_the_state_cap(walk, refusal):
    """Each walk refuses at DEFAULT_STATE_CAP values, in about a second,
    and names what refused."""
    dfa = prime_cycles_dfa()
    assert dfa.n_states == 59
    with pytest.raises(StateLimitExceeded, match=f"^{refusal}$"):
        walk(dfa)


def test_classify_names_the_triviality_test_when_it_refuses(tmp_path, capsys):
    path = tmp_path / "prime_cycles.json"
    path.write_text(json.dumps(automaton_to_json(prime_cycles_dfa())))
    assert main(["classify", "--automaton", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {LASSO_REFUSAL}\n"


@st.composite
def small_nfas(draw):
    """An NFA with 1-5 states over 1-3 symbols: any transitions, initials
    and finals."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 5))
    state = st.integers(0, n_states - 1)
    transitions = draw(st.sets(st.tuples(state, st.integers(0, len(symbols) - 1), state)))
    return Nfa(Alphabet.from_string(symbols), n_states, draw(st.sets(state)), transitions, draw(st.sets(state)))


def cut_to_length(nfa, bound):
    """NFA for the words of L of length at most ``bound``: state (k, q) is
    q after k symbols."""
    s = nfa.n_states
    transitions = [(k * s + p, a, (k + 1) * s + q) for p, a, q in nfa.transitions for k in range(bound)]
    finals = [k * s + f for f in nfa.finals for k in range(bound + 1)]
    return Nfa(nfa.alphabet, s * (bound + 1), nfa.initials, transitions, finals)


def uniform_up_to(nfa, bound):
    """Brute force: at every length up to ``bound`` the NFA accepts all
    words or none.  Runs every word, one length at a time."""
    succ = nfa.successors()
    symbols = range(len(nfa.alphabet))
    level = [nfa.initials]  # the states each word of the current length reaches
    for _ in range(bound):
        level = [frozenset(q for p in states for q in succ.get((p, a), ())) for states in level for a in symbols]
        if len({not states.isdisjoint(nfa.finals) for states in level}) > 1:
            return False
    return True


@settings(max_examples=300)
@given(small_nfas())
def test_is_length_language_matches_brute_force(nfa):
    """Brute force over every word up to length 8 decides the language cut
    to those lengths exactly, and a length language must pass it."""
    uniform = uniform_up_to(nfa, 8)
    assert is_length_language(cut_to_length(nfa, 8)) == uniform
    assert not is_length_language(nfa) or uniform


LARGE_PRODUCT = "(ab|ba)*bb(aaaa)*"


def test_excluded_factor_needs_no_length_set_cap(capsys):
    """On the way to the factor ``aaab`` the search reads the length sets
    of products of 29 states (for ``bab``); it finds that factor, and
    ``classify`` reports it."""
    dfa = build_dfa(LARGE_PRODUCT)
    assert product_intersect(dfa, _factor_dfa(AB, "bab")).n_states == 29
    assert find_excluded_factor(dfa) == (Progression(2, 2), "aaab")
    assert main(["classify", "--regex", LARGE_PRODUCT, "--alphabet", "ab"]) == 0
    assert json.loads(capsys.readouterr().out)["excluded_factor"] == {
        "factor": "aaab",
        "lengths": {"offset": 2, "step": 2},
    }
