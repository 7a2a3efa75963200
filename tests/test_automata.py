import pytest
from conftest import AB, UNARY, CORPUS, WRONGLY_TYPED_FIELDS, build_dfa, reference_match, words_up_to, wrongly_typed

from regwin import (
    Alphabet,
    AlphabetMismatch,
    Dfa,
    Rdfa,
    RegexSyntaxError,
    StateLimitExceeded,
    automaton_from_json,
    automaton_to_json,
    determinize,
    equivalent,
    minimize,
    parse_regex,
    product_intersect,
    rdfa_to_dfa,
    reverse_to_rdfa,
    trim_reachable,
)


# --- Alphabet ----------------------------------------------------------------


def test_alphabet_pad_defaults_to_smallest_symbol():
    assert Alphabet.from_string("ba").pad == "a"
    assert Alphabet.from_string("ba", pad="b").pad == "b"


def test_alphabet_rejects_bad_input():
    with pytest.raises(ValueError):
        Alphabet.from_string("")
    with pytest.raises(ValueError):
        Alphabet.from_string("aa")
    with pytest.raises(ValueError):
        Alphabet.from_string("ab", pad="c")


# --- parse_regex -------------------------------------------------------------


def test_parse_regex_a_star():
    nfa = parse_regex("a*", AB)
    assert nfa.accepts("")
    assert nfa.accepts("aaa")
    assert not nfa.accepts("ab")


def test_parse_regex_even_a_blocks():
    nfa = parse_regex("(aa)*", UNARY)
    for k in range(9):
        assert nfa.accepts("a" * k) == (k % 2 == 0)


def test_parse_regex_b_then_a():
    nfa = parse_regex("ba*", AB)
    assert nfa.accepts("baaa")
    assert not nfa.accepts("aba")


@pytest.mark.parametrize("pattern", [p for _id, p in CORPUS] + [".", "a?b+", "(a|b)?", "", "()"])
def test_parse_regex_matches_reference_engine(pattern):
    nfa = parse_regex(pattern, AB)
    for word in words_up_to(AB, 4):
        assert nfa.accepts(word) == reference_match(pattern, word), (pattern, word)


@pytest.mark.parametrize(
    "pattern, position",
    [("a(b", 1), ("a)", 1), ("*a", 0), ("a|*", 2), ("ac", 1), ("(a|b))", 5)],
)
def test_parse_regex_syntax_errors_carry_positions(pattern, position):
    with pytest.raises(RegexSyntaxError) as err:
        parse_regex(pattern, AB)
    assert err.value.position == position


# --- determinize -------------------------------------------------------------


def test_determinize_a_star_is_two_state_complete():
    dfa = determinize(parse_regex("a*", AB))
    assert minimize(dfa).n_states == 2  # live state + sink
    for word in words_up_to(AB, 6):
        assert dfa.accepts(word) == reference_match("a*", word)


def test_determinize_no_finals_gives_empty_language():
    nfa = parse_regex("a", AB)
    stripped = type(nfa)(nfa.alphabet, nfa.n_states, nfa.initials, nfa.transitions, ())
    dfa = determinize(stripped)
    assert all(not dfa.accepts(w) for w in words_up_to(AB, 4))


def test_determinize_universal_language_minimizes_to_one_state():
    assert minimize(determinize(parse_regex("(a|b)*", AB))).n_states == 1


def test_determinize_output_is_structurally_complete():
    for _id, pattern in CORPUS:
        dfa = determinize(parse_regex(pattern, AB))
        assert all(len(row) == len(AB) for row in dfa.delta)


def test_determinize_state_cap_is_loud():
    with pytest.raises(StateLimitExceeded):
        determinize(parse_regex("(a|b)*a(a|b)(a|b)(a|b)", AB), cap=4)


# --- reverse_to_rdfa ----------------------------------------------------------


def test_reverse_a_star_structure():
    rdfa = reverse_to_rdfa(build_dfa("a*"))
    assert rdfa.n_states == 2
    q0 = rdfa.initial
    sink = 1 - q0
    assert rdfa.finals == {q0}
    a, b = AB.code("a"), AB.code("b")
    assert rdfa.delta[q0][a] == q0 and rdfa.delta[q0][b] == sink
    assert rdfa.delta[sink][a] == sink and rdfa.delta[sink][b] == sink


def test_reverse_even_as_over_unary_alphabet():
    rdfa = reverse_to_rdfa(build_dfa("(aa)*", "a"))
    assert rdfa.n_states == 2
    assert rdfa.finals == {rdfa.initial}
    a = UNARY.code("a")
    other = rdfa.delta[rdfa.initial][a]
    assert other != rdfa.initial and rdfa.delta[other][a] == rdfa.initial
    for k in range(9):
        assert rdfa.accepts("a" * k) == (k % 2 == 0)


def test_reverse_empty_language():
    nfa = parse_regex("a", AB)
    empty = type(nfa)(nfa.alphabet, nfa.n_states, nfa.initials, nfa.transitions, ())
    rdfa = reverse_to_rdfa(determinize(empty))
    assert all(not rdfa.accepts(w) for w in words_up_to(AB, 4))


@pytest.mark.parametrize("ident, pattern", CORPUS)
def test_reverse_preserves_language(ident, pattern):
    dfa = build_dfa(pattern)
    rdfa = reverse_to_rdfa(dfa)
    for word in words_up_to(AB, 8):
        assert dfa.accepts(word) == rdfa.accepts(word), word


@pytest.mark.parametrize("ident, pattern", CORPUS)
def test_rdfa_to_dfa_round_trip(ident, pattern):
    dfa = build_dfa(pattern)
    assert equivalent(dfa, rdfa_to_dfa(reverse_to_rdfa(dfa)))


# --- product / minimize / equivalence / trim ----------------------------------


def test_equivalent_union_idempotent():
    assert equivalent(
        minimize(determinize(parse_regex("a*", AB))),
        determinize(parse_regex("a*|a*", AB)),
    )


def test_product_intersection_over_unary():
    product = product_intersect(build_dfa("a*", "a"), build_dfa("(aa)*", "a"))
    for k in range(9):
        assert product.accepts("a" * k) == (k % 2 == 0)


def test_product_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        product_intersect(build_dfa("a*", "a"), build_dfa("a*", "ab"))


def test_minimize_a_star_hits_nerode_bound():
    minimal = minimize(determinize(parse_regex("a*", AB)))
    assert minimal.n_states == 2
    # Myhill-Nerode by brute force: count classes distinguished by short suffixes
    prefixes = list(words_up_to(AB, 4))
    suffixes = list(words_up_to(AB, 4))
    signature = {}
    for p in prefixes:
        signature.setdefault(tuple(reference_match("a*", p + s) for s in suffixes), p)
    assert len(signature) == minimal.n_states


def test_trim_reachable_drops_unreachable_states():
    cases = [
        # two-state machine where state 1 is unreachable
        (Rdfa(AB, [[0, 0], [1, 0]], 0, [0, 1]), 1),
        # ba* read left to right, plus an unreachable final state 3; the
        # trim must keep the reading direction (baa in, aab out)
        (Dfa(AB, [[1, 2], [1, 1], [2, 1], [3, 0]], 0, [2, 3]), 3),
    ]
    for machine, kept in cases:
        trimmed = trim_reachable(machine)
        assert type(trimmed) is type(machine)
        assert trimmed.n_states == kept
        for word in words_up_to(AB, 5):
            assert trimmed.accepts(word) == machine.accepts(word)


def test_pipeline_agrees_with_reference_engine_end_to_end():
    for _id, pattern in CORPUS:
        dfa = build_dfa(pattern)
        rdfa = reverse_to_rdfa(dfa)
        small = minimize(dfa)
        for word in words_up_to(AB, 8):
            expected = reference_match(pattern, word)
            assert dfa.accepts(word) == expected
            assert rdfa.accepts(word) == expected
            assert small.accepts(word) == expected


# --- JSON wire format -----------------------------------------------------------


@pytest.mark.parametrize("ident, pattern", CORPUS[:4])
def test_json_round_trip_dfa(ident, pattern):
    dfa = build_dfa(pattern)
    loaded = automaton_from_json(automaton_to_json(dfa))
    assert isinstance(loaded, Dfa)
    assert equivalent(dfa, loaded)


def test_json_round_trip_rdfa():
    rdfa = reverse_to_rdfa(build_dfa("ba*"))
    loaded = automaton_from_json(automaton_to_json(rdfa))
    assert isinstance(loaded, Rdfa)
    for word in words_up_to(AB, 6):
        assert loaded.accepts(word) == rdfa.accepts(word)


def test_json_rejects_state_ids_out_of_range():
    data = automaton_to_json(build_dfa("a*"))  # 2 states
    for entry in data["transitions"]:
        if entry["from"] == 1:
            entry["from"] = -1
    with pytest.raises(ValueError, match="state ids must lie in 0..1"):
        automaton_from_json(data)


@pytest.mark.parametrize("field", ["alphabet", "states", "direction", "transitions", "initial", "finals"])
def test_json_names_a_missing_field(field):
    data = automaton_to_json(build_dfa("a*"))
    del data[field]
    with pytest.raises(ValueError, match=f"missing field '{field}'"):
        automaton_from_json(data)


@pytest.mark.parametrize("field", ["from", "symbol", "to"])
def test_json_names_a_missing_transition_field(field):
    data = automaton_to_json(build_dfa("a*"))
    del data["transitions"][0][field]
    with pytest.raises(ValueError, match=f"transition .* is missing field '{field}'"):
        automaton_from_json(data)


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED_FIELDS))
def test_json_names_a_wrongly_typed_field(case):
    data = wrongly_typed(automaton_to_json(build_dfa("a*")), case)
    with pytest.raises(ValueError, match=WRONGLY_TYPED_FIELDS[case][1]):
        automaton_from_json(data)


def test_json_rejects_partial_tables():
    data = automaton_to_json(build_dfa("a*"))
    data["transitions"] = data["transitions"][:-1]
    with pytest.raises(ValueError, match="not total"):
        automaton_from_json(data)
