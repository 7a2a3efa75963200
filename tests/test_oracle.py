import ast
import math
import random
from pathlib import Path

import pytest
from conftest import (
    AB,
    CORPUS,
    build_analyzed,
    build_dfa,
    language_slice,
    last_n,
    reference_distance_to_language,
    words_up_to,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import WindowBuffer, check_t_simulation, exhaustive_accepting_run, final_window, hamming_distance

from regwin import Alphabet, Dfa, cli, distance_to_language, prefix_distance_to_language
from regwin import oracle

ab_words = st.text(alphabet="ab", max_size=12)


# --- hamming distance ----------------------------------------------------------


def test_hamming_examples():
    assert hamming_distance("abc", "abc") == 0
    assert hamming_distance("bbbb", "aaaa") == 4
    with pytest.raises(ValueError):
        hamming_distance("a", "ab")


def test_hamming_block_language_example():
    # words of b's against the blocks-ending-in-a language: one change per block
    dfa = build_dfa("((a|b)a)*")
    assert distance_to_language("bbbb", dfa) == 2
    for k in range(1, 5):
        assert distance_to_language("b" * (2 * k), dfa) == k


@settings(max_examples=100, deadline=None)
@given(ab_words, ab_words)
def test_hamming_is_symmetric(u, v):
    n = min(len(u), len(v))
    assert hamming_distance(u[:n], v[:n]) == hamming_distance(v[:n], u[:n])


# --- distance to language --------------------------------------------------------


def test_distance_examples():
    assert distance_to_language("aaaa", build_dfa("a*")) == 0
    assert distance_to_language("ab", build_dfa("(aa)*")) == 1
    assert distance_to_language("b", build_dfa("(aa)*")) == math.inf  # odd length slice is empty


def brute_distance(word, slice_):
    if not slice_:
        return math.inf
    return min(hamming_distance(word, member) for member in slice_)


def test_distance_dp_matches_enumeration():
    for _id, pattern in CORPUS:
        dfa = build_dfa(pattern)
        slices = {length: language_slice(dfa, length) for length in range(9)}
        for word in words_up_to(AB, 8):
            expected = brute_distance(word, slices[len(word)])
            assert distance_to_language(word, dfa) == expected, (pattern, word)


@st.composite
def machines_and_words(draw):
    """A complete DFA with 1-8 states over 1-3 symbols, each state final
    with one drawn chance (so empty languages and finals that reach no
    final again both appear), and a word of length 0-64 over its symbols."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 8))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    final_chance = draw(st.floats(0, 1))
    finals = [q for q in range(n_states) if draw(st.floats(0, 1)) < final_chance]
    dfa = Dfa(Alphabet.from_string(symbols), delta, draw(state), finals)
    return dfa, draw(st.text(alphabet=symbols, max_size=64))


@settings(max_examples=1500)
@given(machines_and_words())
def test_distance_matches_the_plain_dp(machine_and_word):
    dfa, word = machine_and_word
    assert distance_to_language(word, dfa) == reference_distance_to_language(word, dfa)


@st.composite
def machines_and_windows(draw):
    """A complete DFA with 1-8 states over 1-3 symbols and any pad, each
    state final with one drawn chance, a stream of up to five pieces
    (words of 1-4 symbols, each repeated 0-40 times) and a window size
    from 0 to past the stream's length."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, 8))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    final_chance = draw(st.floats(0, 1))
    finals = [q for q in range(n_states) if draw(st.floats(0, 1)) < final_chance]
    dfa = Dfa(Alphabet.from_string(symbols, draw(st.sampled_from(symbols))), delta, draw(state), finals)
    piece = st.tuples(st.text(alphabet=symbols, min_size=1, max_size=4), st.integers(0, 40))
    pieces = draw(st.lists(piece, max_size=5))
    return dfa, pieces, draw(st.integers(0, sum(len(word) * k for word, k in pieces) + 8))


@settings(max_examples=1500, deadline=None)
@given(machines_and_windows())
def test_piece_distance_matches_the_plain_dp_on_the_final_window(case):
    """The oracle over pieces, whose powers it cuts short once their cost
    vectors cycle, against the plain DP over the joined symbols: on the
    whole stream and on its final window, padded past the stream."""
    dfa, pieces, n = case
    joined = "".join(word * k for word, k in pieces)
    window = cli._final_pieces(pieces, dfa.alphabet, n)
    contents = final_window(joined, dfa.alphabet, n)
    assert "".join(word * k for word, k in window) == contents
    assert distance_to_language(window, dfa) == reference_distance_to_language(contents, dfa)
    assert distance_to_language(pieces, dfa) == reference_distance_to_language(joined, dfa)


def test_piece_distance_adds_the_cycles_of_a_huge_power_in_closed_form():
    """A window of 2^62 + 1 symbols in three pieces: ba* needs every b
    after the first changed, and b(aa)* too, its a-count being even."""
    n = 2**62 + 1
    for pattern in ("ba*", "b(aa)*"):
        dfa = build_dfa(pattern)
        assert distance_to_language([("b", 1), ("a", n - 1)], dfa) == 0
        assert distance_to_language([("b", 1), ("ab", (n - 1) // 2)], dfa) == (n - 1) // 2
        assert distance_to_language([("ab", 1), ("aab", (n - 2) // 3)], dfa) == 2 + (n - 2) // 3
    assert distance_to_language([("b", 1), ("a", n)], build_dfa("b(aa)*")) == math.inf  # an odd a-count


@pytest.mark.parametrize(
    "pieces",
    [[("ab", 3), ("ca", 2)], [("ab", 3), ("ac", 0), ("b", 1)], [("b", 2**62), ("c", 1)], [("a", 2), ("abc", 1)]],
)
@pytest.mark.parametrize("pattern", ["(ab)*", "ab", "b*"])
def test_piece_distance_rejects_a_foreign_symbol_in_any_piece(pattern, pieces):
    """In a cycled power's remainder, in a piece of no copies, and after
    every live state became unreachable."""
    with pytest.raises(ValueError, match="'c'"):
        distance_to_language(pieces, build_dfa(pattern))


class RecordingTable(dict):
    """A step table that records its largest size and how often it was emptied."""

    def __init__(self):
        super().__init__()
        self.largest = 0
        self.emptied = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.largest = max(self.largest, len(self))

    def clear(self):
        super().clear()
        self.emptied += 1


# languages whose live tracks drift apart on these words, so the normalized
# cost vectors rarely recur: (pattern, symbols, the word's symbol weights)
DIVERGENT = [
    ("a*|b*", "ab", "aaaaaaaaab"),
    ("a*|b(a|b)*", "ab", "aaab"),
    ("((a|b)(a|b)(a|b)(a|b)(a|b))*|c(a|b|c)*", "abc", "abcc"),
]


@pytest.mark.parametrize("pattern, symbols, weights", DIVERGENT)
def test_distance_on_long_divergent_words_keeps_the_table_bounded(pattern, symbols, weights):
    dfa = build_dfa(pattern, symbols)
    rng = random.Random(pattern)
    word = "".join(rng.choice(weights) for _ in range(4096))
    table = RecordingTable()
    expected = reference_distance_to_language(word, dfa)
    assert oracle._memoized_distance(word, dfa, table) == expected
    assert distance_to_language(word, dfa) == expected
    assert table.largest == oracle.STEP_TABLE_SIZE
    assert table.emptied  # the leading track's lead outgrows the table mid-word


@pytest.mark.parametrize(
    "pattern, word",
    [
        ("(ab)*", "c" + "ab" * 10),  # at position 0
        ("(ab)*", "ab" * 200 + "c" + "ab"),  # after the table is warm
        ("ab", "abab" + "c"),  # after every live state became unreachable
        ("", "ab" + "c"),  # the language is empty from the start
    ],
)
def test_distance_rejects_a_foreign_symbol_anywhere(pattern, word):
    dfa = build_dfa(pattern) if pattern else Dfa(AB, [[0, 0]], 0, [])
    with pytest.raises(ValueError, match="'c'"):
        distance_to_language(word, dfa)


# --- prefix distance ---------------------------------------------------------------


def test_prefix_distance_examples():
    a_star = build_dfa("a*")
    assert prefix_distance_to_language("aaaa", a_star) == 0
    assert prefix_distance_to_language("baaa", a_star) == 1
    assert prefix_distance_to_language("aaab", a_star) == 4
    assert prefix_distance_to_language("b", build_dfa("(aa)*")) == math.inf


def brute_prefix_distance(word, dfa):
    slice_ = language_slice(dfa, len(word))
    best = math.inf
    for member in slice_:
        i = len(word)
        while i > 0 and word[i - 1] == member[i - 1]:
            i -= 1
        best = min(best, i)
    return best


def test_prefix_distance_matches_enumeration_and_dominates_hamming():
    for _id, pattern in CORPUS:
        dfa = build_dfa(pattern)
        for word in words_up_to(AB, 6):
            pdist = prefix_distance_to_language(word, dfa)
            assert pdist == brute_prefix_distance(word, dfa), (pattern, word)
            assert pdist >= distance_to_language(word, dfa)


# --- window buffer ---------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(stream=ab_words, size=st.integers(0, 8))
def test_window_buffer_tracks_last_n(stream, size):
    window = WindowBuffer(AB, size)
    for symbol in stream:
        window.feed(symbol)
    assert window.contents() == last_n(size, stream, AB.pad)


# --- exhaustive runs and the simulation property -----------------------------------


def test_exhaustive_run_found_when_length_is_accepted():
    analyzed = build_analyzed("(aa)*", "a")
    p0 = analyzed.rdfa.initial
    run = exhaustive_accepting_run(analyzed, p0, 4)
    assert run is not None and len(run) == 5
    assert run[0] == p0 and run[-1] in analyzed.rdfa.finals
    for prev, nxt in zip(run, run[1:]):  # every step is a real transition
        assert nxt in analyzed.rdfa.delta[prev]
    assert exhaustive_accepting_run(analyzed, p0, 3) is None  # odd length


def test_exhaustive_run_guard_is_loud():
    analyzed = build_analyzed("a*")
    with pytest.raises(ValueError):
        exhaustive_accepting_run(analyzed, analyzed.rdfa.initial, analyzed.t + 2 * analyzed.g + 9)


def test_t_simulation_degenerate_short_run():
    analyzed = build_analyzed("(aa)*", "a")
    p0 = analyzed.rdfa.initial
    # run of length <= t always simulable when the length is accepted
    for n in range(0, 7, 2):
        assert check_t_simulation(analyzed, [p0], n)


def test_t_simulation_even_as_internal_run():
    analyzed = build_analyzed("(aa)*", "a")
    p0 = analyzed.rdfa.initial
    run = analyzed.rdfa.run("aa", p0)
    assert check_t_simulation(analyzed, run, 4)


def test_t_simulation_rejects_non_internal_runs():
    analyzed = build_analyzed("a*")
    q0 = analyzed.rdfa.initial
    run = analyzed.rdfa.run("ba", q0)  # crosses into the sink component
    with pytest.raises(ValueError):
        check_t_simulation(analyzed, run, 4)


# --- layering -------------------------------------------------------------------


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a source file of the regwin package
    imports, relative imports resolved against the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("regwin." + (node.module or "")) if node.level else node.module
            base = base.rstrip(".")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["testers_det.py", "testers_rand.py"])
def test_testers_do_not_import_the_oracle(module):
    """The oracle stays ground truth that the testers cannot lean on."""
    path = Path(__file__).resolve().parent.parent / "src" / "regwin" / module
    assert "regwin.oracle" not in _imported_modules(path)
