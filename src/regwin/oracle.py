"""Ground-truth reference implementations used to audit the testers.

Most of this module favours obviousness over speed: an explicit ring
buffer for the active window, suffix-anchored search for prefix distance,
and exhaustive run search for the simulation property.  Hamming distance
to the length-n slice of a language, which labels every experiment row, is
the same min-plus dynamic programme kept cheap: it steps only the states
that can still reach a final state, holds the cost vector normalized by its
minimum, and memoizes each (vector, symbol) step, so a window whose
normalized vectors recur costs one table lookup per symbol.  Infinite
distance (empty length slice) is an explicit ``math.inf``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, Sequence

from .analysis import AnalyzedRdfa
from .automata import Alphabet, Dfa, Rdfa


class WindowBuffer:
    """Ring buffer holding the active window: the last n stream symbols,
    padded on the left with the alphabet's pad symbol."""

    __slots__ = ("size", "_buf")

    def __init__(self, alphabet: Alphabet, size: int):
        if size < 0:
            raise ValueError("window size must be nonnegative")
        self.size = size
        self._buf: deque[str] = deque([alphabet.pad] * size, maxlen=size)

    def feed(self, symbol: str) -> None:
        self._buf.append(symbol)

    def contents(self) -> str:
        return "".join(self._buf)


def hamming_distance(u: str, v: str) -> int:
    """Number of positions where two equal-length words differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


STEP_TABLE_SIZE = 1024  # memoized steps one distance call holds before it empties its table


def _live_states(dfa: Dfa) -> list[int]:
    """The states from which some final state is reachable, in order."""
    predecessors: list[list[int]] = [[] for _ in range(dfa.n_states)]
    for p, _a, q in dfa.transitions():
        predecessors[q].append(p)
    live = set(dfa.finals)
    stack = list(live)
    while stack:
        for p in predecessors[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)
    return sorted(live)


def _live_moves(row: Sequence[int], actual: int, index: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """(live index, mismatch cost) of each live target of a state's row
    when the word reads symbol ``actual``; a target reached on ``actual``
    costs 0, any other 1."""
    cost: dict[int, int] = {}
    for a, target in enumerate(row):
        j = index.get(target)
        if j is not None:
            mismatch = int(a != actual)
            cost[j] = min(cost.get(j, mismatch), mismatch)
    return tuple(cost.items())


def _check_symbols(symbols: Iterable[str], alphabet: Alphabet) -> None:
    for ch in symbols:
        alphabet.code(ch)  # raises ValueError on a foreign symbol


def distance_to_language(word: str, dfa: Dfa) -> int | float:
    """Exact Hamming distance from ``word`` to L ∩ Σ^|word|.

    Min-plus DP over the forward machine (Wagner 1974): cost[q] after i
    symbols is the least number of mismatches over length-i words leading
    to q.  Only live states, those that can still reach a final state, are
    stepped; the others never decide the answer.  The cost vector is kept
    as a tuple normalized by its minimum plus a running integer base, and
    each step (vector, symbol) -> (next vector, minimum added) is memoized
    in a table private to the call, so a recurring vector costs one lookup
    per symbol.  The table holds at most ``STEP_TABLE_SIZE`` steps and is
    emptied when full.  When live tracks drift apart (``a*|b*`` on an
    a-heavy word) the vectors never recur: every step misses and runs the
    DP over live states plus a table store, which can be slower than the
    plain DP over every state.  A foreign symbol anywhere in ``word``
    raises ``ValueError``.
    """
    return _memoized_distance(word, dfa, {})


def _memoized_distance(word: str, dfa: Dfa, table: dict) -> int | float:
    alphabet = dfa.alphabet
    live = _live_states(dfa)
    index = {q: i for i, q in enumerate(live)}
    symbols = iter(word)
    inf = math.inf
    if dfa.initial not in index:  # the language is empty
        _check_symbols(symbols, alphabet)
        return inf
    vector = tuple(0 if q == dfa.initial else inf for q in live)
    base = 0
    # moves[ch][i]: (j, 0 if reading ch else 1) per live successor j of live state i
    moves: dict[str, list[tuple[tuple[int, int], ...]]] = {}
    for ch in symbols:
        key = (vector, ch)
        step = table.get(key)
        if step is None:
            state_moves = moves.get(ch)
            if state_moves is None:
                actual = alphabet.code(ch)
                state_moves = moves[ch] = [_live_moves(dfa.delta[q], actual, index) for q in live]
            nxt: list[int | float] = [inf] * len(live)
            for c, edges in zip(vector, state_moves):
                if c is inf:
                    continue
                for j, mismatch in edges:
                    edited = c + mismatch
                    if edited < nxt[j]:
                        nxt[j] = edited
            low = min(nxt)
            if low is inf:  # no live state left: the slice of this length is empty
                _check_symbols(symbols, alphabet)
                return inf
            if len(table) >= STEP_TABLE_SIZE:
                table.clear()
            step = table[key] = (tuple(c if c is inf else c - low for c in nxt), low)
        vector, added = step
        base += added
    best = min(vector[index[f]] for f in dfa.finals)
    return best if best is inf else base + best


def prefix_distance_to_language(word: str, dfa: Dfa) -> int | float:
    """Least i such that some member of L ∩ Σ^|word| agrees with ``word``
    beyond position i (so 0 means membership; inf means empty slice).

    The candidate suffix is anchored at the right, so the search combines
    forward reachability (which states are reachable by *some* prefix of
    length i) with backward reachability over the fixed suffix of ``word``.
    """
    n = len(word)
    # share[i] = states q with delta(q, word[i:]) final, built right to left
    share = [set(dfa.finals)]
    for ch in reversed(word):
        a = dfa.alphabet.code(ch)
        previous = share[-1]
        share.append({q for q in range(dfa.n_states) if dfa.delta[q][a] in previous})
    share.reverse()
    reachable = {dfa.initial}
    for i in range(n + 1):
        if reachable & share[i]:
            return i
        if i < n:
            reachable = {dfa.delta[q][a] for q in reachable for a in range(len(dfa.alphabet))}
    return math.inf


def _reachable_layers(rdfa: Rdfa, start: int, depth: int) -> list[set[int]]:
    layers = [{start}]
    for _ in range(depth):
        layers.append({rdfa.delta[q][a] for q in layers[-1] for a in range(len(rdfa.alphabet))})
    return layers


def _run_length_guard(analyzed: AnalyzedRdfa, n: int) -> None:
    bound = analyzed.t + 2 * analyzed.g + 8
    if n > bound:
        raise ValueError(f"exhaustive run search is guarded at length {bound}, got {n}")


def exhaustive_accepting_run(analyzed: AnalyzedRdfa, q: int, n: int) -> list[int] | None:
    """Some accepting run of length exactly n from q (as its state
    sequence), or None.  Guarded to small n; this is a test oracle."""
    _run_length_guard(analyzed, n)
    rdfa = analyzed.rdfa
    layers = _reachable_layers(rdfa, q, n)
    goals = layers[n] & rdfa.finals
    if not goals:
        return None
    # walk backwards choosing any predecessor in the previous layer
    run = [min(goals)]
    for depth in range(n - 1, -1, -1):
        here = run[-1]
        for p in sorted(layers[depth]):
            if any(rdfa.delta[p][a] == here for a in range(len(rdfa.alphabet))):
                run.append(p)
                break
    run.reverse()
    return run


def _accepts_some_word_of_length(rdfa: Rdfa, q: int, n: int) -> bool:
    frontier = {q}
    for _ in range(n):
        frontier = {rdfa.delta[p][a] for p in frontier for a in range(len(rdfa.alphabet))}
    return bool(frontier & rdfa.finals)


def check_t_simulation(analyzed: AnalyzedRdfa, run_states: Sequence[int], n: int) -> bool:
    """Check that some accepting run of length n from the start state of an
    internal run keeps the run's behaviour except for a prefix of length at
    most the analysis threshold t.

    Concretely: for some k <= min(t, |run|), dropping the run's final k
    steps leaves a state from which an accepting continuation of length
    n - (|run| - k) exists.  Length membership is recomputed here by plain
    frontier search, independent of the analysis module's periodic sets.
    """
    _run_length_guard(analyzed, n)
    length = len(run_states) - 1
    if length > n:
        raise ValueError("run longer than the target length")
    scc = analyzed.scc
    if any(not scc.same_scc(run_states[0], s) for s in run_states):
        raise ValueError("run is not internal to one SCC")
    for k in range(0, min(analyzed.t, length) + 1):
        kept = length - k
        if _accepts_some_word_of_length(analyzed.rdfa, run_states[kept], n - kept):
            return True
    return False
