"""Shared corpus and brute-force helpers.

The corpus spans the behaviours the testers care about: trivial and
nontrivial languages, suffix-free ones, length-periodic ones, finite sets,
unions, and the universal language, all over the two-symbol alphabet
{a, b} (plus a unary variant).  Build results are cached per pattern so
the analysis pipeline runs once per language for the whole session.
"""

from __future__ import annotations

import functools
import itertools
import math
import re

from hypothesis import settings
from hypothesis import strategies as st

from regwin import (
    Alphabet,
    AnalyzedRdfa,
    Dfa,
    analyze,
    determinize,
    enumerate_path_descriptions,
    minimize,
    parse_regex,
)

# every property test draws the same examples on every run; tests that set
# their own settings keep their example counts and inherit the rest
settings.register_profile("regwin", derandomize=True, deadline=None)
settings.load_profile("regwin")

CORPUS: list[tuple[str, str]] = [
    ("a-star", "a*"),
    ("aa-star", "(aa)*"),
    ("ends-a", "(a|b)*a"),
    ("b-then-a", "ba*"),
    ("pairs-end-a", "((a|b)a)*"),
    ("ab-star", "(ab)*"),
    ("just-ab", "ab"),
    ("a-or-bb", "a|bb"),
    ("astar-or-bastar", "a*|ba*"),
    ("universal", "(a|b)*"),
    ("b-prefix", "b(a|b)*"),
    ("b-even-a", "b(aa)*"),
]

AB = Alphabet.from_string("ab")
UNARY = Alphabet.from_string("a")

# g = 2^20: the product of this machine with a counter mod g is far past any
# machine the acceptance sets can take
WIDE_PERIOD_DFA = Dfa(
    AB,
    [[8, 7], [3, 3], [7, 8], [0, 1], [4, 7], [7, 7], [4, 4], [5, 4], [2, 0]],
    5,
    {1, 5, 6, 7},
)

_SAFE_PATTERN = re.compile(r"^[ab.|*+?()]*$")


def reference_match(pattern: str, word: str) -> bool:
    """Independent matcher for the test grammar: delegate to the stdlib
    regex engine, whose semantics coincide on this fragment."""
    assert _SAFE_PATTERN.match(pattern), f"pattern {pattern!r} outside the oracle-safe fragment"
    return re.fullmatch(pattern, word) is not None


@functools.lru_cache(maxsize=None)
def build_dfa(pattern: str, symbols: str = "ab", pad: str | None = None) -> Dfa:
    alphabet = Alphabet.from_string(symbols, pad)
    return minimize(determinize(parse_regex(pattern, alphabet)))


@functools.lru_cache(maxsize=None)
def build_analyzed(pattern: str, symbols: str = "ab", pad: str | None = None) -> AnalyzedRdfa:
    return analyze(build_dfa(pattern, symbols, pad))


@st.composite
def complete_dfas(draw, max_states: int = 6) -> Dfa:
    """A complete DFA with 1 to ``max_states`` states over 1-3 symbols, any
    initial state and pad.  Most machines of two or more states make their
    last state a rejecting sink: random machines without one are nearly
    all trivial."""
    symbols = "abc"[: draw(st.integers(1, 3))]
    n_states = draw(st.integers(1, max_states))
    state = st.integers(0, n_states - 1)
    delta = [[draw(state) for _ in symbols] for _ in range(n_states)]
    finals = draw(st.sets(state))
    if n_states >= 2 and draw(st.integers(0, 4)):
        delta[-1] = [n_states - 1] * len(symbols)
        finals.discard(n_states - 1)
    alphabet = Alphabet.from_string(symbols, draw(st.sampled_from(symbols)))
    return Dfa(alphabet, delta, draw(state), finals)


@st.composite
def calls_feeding(draw, symbols: str, length: int) -> list[tuple[str, str, int]]:
    """``(method, word, k)`` calls of ``feed`` (a symbol, k = 1),
    ``feed_power`` and ``feed_run`` (a word of 1-3 symbols, 1 <= k <=
    length), drawn until they feed ``length`` symbols or more."""
    calls: list[tuple[str, str, int]] = []
    fed = 0
    while fed < length:
        method = draw(st.sampled_from(["feed", "feed_power", "feed_run"]))
        if method == "feed":
            word, k = draw(st.sampled_from(symbols)), 1
        else:
            word, k = draw(st.text(alphabet=symbols, min_size=1, max_size=3)), draw(st.integers(1, length))
        calls.append((method, word, k))
        fed += len(word) * k
    return calls


def make_call(tester, method: str, word: str, k: int) -> None:
    """Apply one call drawn by ``calls_feeding`` to ``tester``."""
    if method == "feed":
        tester.feed(word)
    else:
        getattr(tester, method)(word, k)


def transient_partials(analyzed: AnalyzedRdfa) -> list:
    """The partial machines of every transient final, finals in order: the
    parts the compiled one-sided tester builds its testers from."""
    finals = [f for f in sorted(analyzed.rdfa.finals) if analyzed.scc.is_transient_state(f)]
    return [partial for f in finals for partial in enumerate_path_descriptions(analyzed, f)]


@functools.lru_cache(maxsize=None)
def build_partials(pattern: str, symbols: str = "ab") -> tuple:
    return tuple(transient_partials(build_analyzed(pattern, symbols)))


def words_up_to(alphabet: Alphabet, max_len: int):
    """All words over the alphabet of length 0..max_len, shortest first."""
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet.symbols, repeat=length):
            yield "".join(combo)


def language_slice(dfa: Dfa, length: int) -> set[str]:
    """L ∩ Σ^length by exhaustive enumeration."""
    return {
        "".join(combo)
        for combo in itertools.product(dfa.alphabet.symbols, repeat=length)
        if dfa.accepts("".join(combo))
    }


def reference_distance_to_language(word: str, dfa: Dfa) -> int | float:
    """Hamming distance from ``word`` to L ∩ Σ^|word| by the plain DP over
    the forward machine: cost[q] after i symbols is the least number of
    mismatches over length-i words leading to q, every state and symbol
    stepped at every position."""
    inf = math.inf
    cost: list[int | float] = [inf] * dfa.n_states
    cost[dfa.initial] = 0
    n_symbols = len(dfa.alphabet)
    for ch in word:
        actual = dfa.alphabet.code(ch)
        nxt: list[int | float] = [inf] * dfa.n_states
        for q, c in enumerate(cost):
            if c is inf:
                continue
            row = dfa.delta[q]
            for a in range(n_symbols):
                target = row[a]
                edited = c + (a != actual)
                if edited < nxt[target]:
                    nxt[target] = edited
        cost = nxt
    best = min((cost[f] for f in dfa.finals), default=inf)
    return best if best is inf else int(best)


def last_n(window_size: int, stream: str, pad: str) -> str:
    """The active window after feeding ``stream``: last n symbols of the
    pad-prefixed stream, computed by plain slicing."""
    padded = pad * window_size + stream
    return padded[len(padded) - window_size :] if window_size else ""


WRONGLY_TYPED_FIELDS = {
    "alphabet-as-number": ("alphabet", "field 'alphabet' must be a list of symbols"),
    "transition-as-list": ("transitions", "each entry of field 'transitions' must be an object"),
    "transitions-as-number": ("transitions", "field 'transitions' must be a list"),
    "finals-as-number": ("finals", "field 'finals' must be a list"),
    "initial-null": ("initial", "field 'initial' must be an integer"),
}


def wrongly_typed(data, case):
    """The machine's wire form with one field of the wrong type."""
    if case == "transition-as-list":
        entry = data["transitions"][0]
        data["transitions"][0] = [entry["from"], entry["symbol"], entry["to"]]
    elif case == "alphabet-as-number":
        data["alphabet"] = 3
    elif case == "transitions-as-number":
        data["transitions"] = 3
    elif case == "finals-as-number":
        data["finals"] = 3
    else:
        data["initial"] = None
    return data
